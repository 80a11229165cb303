package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/faultinject"
	"gptpfta/internal/runner"
)

// RecoveryConfig parameterises the paper's §IV future-work study: replacing
// the feature-rich GNU/Linux clock-synchronization VMs with unikernels
// shrinks the reboot time after a fail-silent fault, which shortens the
// windows during which a node runs without redundancy.
type RecoveryConfig struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration,omitempty"`
	// LinuxDowntime is the guest reboot time of the GNU/Linux stack.
	// Default 45 s (Atom-class ECD).
	LinuxDowntime time.Duration `json:"linux_downtime,omitempty"`
	// UnikernelDowntime is the boot time of a Unikraft-style unikernel.
	// Default 2 s.
	UnikernelDowntime time.Duration `json:"unikernel_downtime,omitempty"`
	// Parallel is the runner's worker count for the two stack campaigns
	// (0 = GOMAXPROCS, 1 = sequential); the result is identical either way.
	Parallel int `json:"parallel,omitempty"`
}

// Validate implements Validator.
func (c RecoveryConfig) Validate() error {
	return checkDurations(
		field{"duration", c.Duration},
		field{"linux_downtime", c.LinuxDowntime},
		field{"unikernel_downtime", c.UnikernelDowntime})
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.LinuxDowntime <= 0 {
		c.LinuxDowntime = 45 * time.Second
	}
	if c.UnikernelDowntime <= 0 {
		c.UnikernelDowntime = 2 * time.Second
	}
	return c
}

// RecoveryOutcome describes one stack variant's campaign.
type RecoveryOutcome struct {
	Downtime time.Duration
	// DegradedSeconds is the cumulative time any node ran with fewer than
	// two healthy clock-synchronization VMs.
	DegradedSeconds float64
	// StaleDomainSeconds is the cumulative time any gPTP domain had no
	// emitting grandmaster.
	StaleDomainSeconds float64
	Failures           int
	MeanPrecisionNS    float64
}

// RecoveryResult contrasts the two stacks.
type RecoveryResult struct {
	Config    RecoveryConfig
	Linux     RecoveryOutcome
	Unikernel RecoveryOutcome
}

// Summary renders the verdict.
func (r *RecoveryResult) Summary() string {
	return fmt.Sprintf(
		"recovery (%v campaign): GNU/Linux reboot %v → %.0f s degraded redundancy; unikernel reboot %v → %.0f s degraded (%.1fx less exposure)",
		r.Config.Duration, r.Config.LinuxDowntime, r.Linux.DegradedSeconds,
		r.Config.UnikernelDowntime, r.Unikernel.DegradedSeconds,
		safeRatio(r.Linux.DegradedSeconds, r.Unikernel.DegradedSeconds))
}

// Rows renders the per-stack table.
func (r *RecoveryResult) Rows() [][]string {
	rows := [][]string{{"stack", "downtime", "degraded_s", "stale_domain_s", "failures", "mean_precision_ns"}}
	for _, v := range []struct {
		name string
		out  RecoveryOutcome
	}{{"linux", r.Linux}, {"unikernel", r.Unikernel}} {
		rows = append(rows, []string{
			v.name,
			v.out.Downtime.String(),
			fmt.Sprintf("%.0f", v.out.DegradedSeconds),
			fmt.Sprintf("%.0f", v.out.StaleDomainSeconds),
			strconv.Itoa(v.out.Failures),
			fmt.Sprintf("%.0f", v.out.MeanPrecisionNS),
		})
	}
	return rows
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// RecoveryComparison runs the same fault-injection campaign against both
// stack variants — in parallel through the runner — and measures redundancy
// exposure.
func RecoveryComparison(ctx context.Context, cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg = cfg.withDefaults()
	res := &RecoveryResult{Config: cfg}

	run := func(downtime time.Duration) (RecoveryOutcome, error) {
		out := RecoveryOutcome{Downtime: downtime}
		sysCfg := core.NewConfig(cfg.Seed)
		sys, err := core.NewSystem(sysCfg)
		if err != nil {
			return out, err
		}
		if err := sys.Start(); err != nil {
			return out, err
		}
		controls := sys.NodeControls()
		nodes := make([]faultinject.NodeControl, len(controls))
		for i := range controls {
			nodes[i] = controls[i]
		}
		inj, err := faultinject.New(sys.Scheduler(), sys.Streams().Stream("inject"), nodes,
			faultinject.Config{
				GMPeriod:            10 * time.Minute,
				RedundantMinPerHour: 3,
				RedundantMaxPerHour: 6,
				Downtime:            downtime,
				DowntimeJitter:      downtime / 8,
				Start:               2 * time.Minute,
			})
		if err != nil {
			return out, err
		}
		if err := inj.Start(); err != nil {
			return out, err
		}

		// Sample redundancy and grandmaster liveness once per second.
		tick, err := sys.Scheduler().Every(sys.Now(), time.Second, func() {
			for _, n := range sys.Nodes() {
				if n.HealthyVMs() < 2 {
					out.DegradedSeconds++
				}
			}
			for i := 0; i < sys.Config().Nodes; i++ {
				name := core.VMName(i, 0)
				vm, ok := sys.VM(name)
				if ok && (!vm.Stack.Running() || vm.Stack.Master() == nil || !vm.Stack.Master().Running()) {
					out.StaleDomainSeconds++
				}
			}
		})
		if err != nil {
			return out, err
		}
		defer tick.Stop()

		if err := sys.RunFor(cfg.Duration); err != nil {
			return out, err
		}
		inj.Stop()
		out.Failures = inj.Stats().TotalFailures
		var sum float64
		var n int
		for _, s := range sys.Collector().Samples() {
			if s.AtSec > 60 {
				sum += s.PiStarNS
				n++
			}
		}
		if n > 0 {
			out.MeanPrecisionNS = sum / float64(n)
		}
		return out, nil
	}

	campaign := func(downtime time.Duration) func(context.Context) (any, error) {
		return func(context.Context) (any, error) {
			out, err := run(downtime)
			if err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	outcomes := runner.New(cfg.Parallel).Execute(ctx, []runner.Run{
		{Name: "stack/linux", Do: campaign(cfg.LinuxDowntime)},
		{Name: "stack/unikernel", Do: campaign(cfg.UnikernelDowntime)},
	})
	outs, err := runner.Values[RecoveryOutcome](outcomes)
	if err != nil {
		return nil, err
	}
	res.Linux, res.Unikernel = outs[0], outs[1]
	return res, nil
}
