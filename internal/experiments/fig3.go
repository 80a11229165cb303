// Package experiments contains the canned reproductions of every figure in
// the paper's evaluation (Fig. 3a, 3b, 4a, 4b, 5), the §III-A3 bounds
// methodology, and the ablation studies listed in DESIGN.md. Each study of
// the paper's system runs its points through the point executor
// (runPoints, warm.go), drives the scenario, and returns a structured
// result that cmd/sweep and the job server render and the golden digests
// pin.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// CyberResilienceConfig parameterises the Fig. 3 experiments. Durations are
// nanoseconds on the wire.
type CyberResilienceConfig struct {
	Seed int64 `json:"seed"`
	// Duration of the run; the paper uses 1 h. The attack instants scale
	// with the duration (the paper attacks at 00:21:42 and 00:31:52).
	Duration time.Duration `json:"duration,omitempty"`
	// DiverseKernels selects the Fig. 3b scenario: only c41 keeps the
	// exploitable kernel; Fig. 3a (false) uses identical kernels.
	DiverseKernels bool `json:"diverse_kernels,omitempty"`
	// ChaosPlan optionally runs a network chaos scenario alongside the
	// exploits.
	ChaosPlan *chaos.Plan `json:"chaos_plan,omitempty"`
	// HoldoverWindow arms the ptp4l holdover watchdog for chaos-composed
	// runs (zero keeps the paper's free-run default).
	HoldoverWindow time.Duration `json:"holdover_window,omitempty"`
}

func (c CyberResilienceConfig) withDefaults() CyberResilienceConfig {
	if c.Duration <= 0 {
		c.Duration = time.Hour
	}
	return c
}

// Validate implements Validator.
func (c CyberResilienceConfig) Validate() error {
	return firstErr(
		checkDurations(
			field{"duration", c.Duration},
			field{"holdover_window", c.HoldoverWindow}),
		checkPlan(c.ChaosPlan),
	)
}

// CyberResilienceResult is the Fig. 3 output.
type CyberResilienceResult struct {
	ObsSnapshot
	Config CyberResilienceConfig

	// Samples is the per-second measured precision Π*_s.
	Samples []measure.Sample
	// Windows aggregates the series for plotting.
	Windows []measure.Window

	// Bound parameters (§III-B).
	ReadingError time.Duration
	DriftOffset  time.Duration
	Bound        time.Duration // Π = 2(E+Γ)
	Gamma        time.Duration

	// Attack timeline.
	FirstAttackAt, SecondAttackAt time.Duration
	ExploitResults                []attack.Result

	// Violation accounting, split at the second attack.
	ViolationsBeforeSecond int
	ViolationsAfterSecond  int
	SamplesBeforeSecond    int
	SamplesAfterSecond     int
	MaxAfterSecondNS       float64
}

// BoundViolatedAfterSecondAttack reports the experiment's headline verdict.
func (r CyberResilienceResult) BoundViolatedAfterSecondAttack() bool {
	return r.ViolationsAfterSecond > r.SamplesAfterSecond/4
}

// Summary renders the headline verdict like the paper's §III-B narrative.
func (r CyberResilienceResult) Summary() string {
	kernels := "identical Linux kernel versions"
	if r.Config.DiverseKernels {
		kernels = "diverse Linux kernel versions"
	}
	verdict := "the FTA masked every attack; the bound held"
	if r.BoundViolatedAfterSecondAttack() {
		verdict = "after the second compromised GM the measured precision violated the bound — synchronization lost"
	}
	return fmt.Sprintf("cyber-resilience (%s): Π = %v, γ = %v; first attack masked (%d/%d violations before second attack); %s",
		kernels, r.Bound, r.Gamma, r.ViolationsBeforeSecond, r.SamplesBeforeSecond, verdict)
}

// Rows renders the violation accounting around both attacks.
func (r CyberResilienceResult) Rows() [][]string {
	kernels := "identical"
	if r.Config.DiverseKernels {
		kernels = "diverse"
	}
	return [][]string{
		{"kernels", "phase", "samples", "violations", "max_ns", "bound_ns", "gamma_ns"},
		{kernels, "before-second-attack",
			strconv.Itoa(r.SamplesBeforeSecond), strconv.Itoa(r.ViolationsBeforeSecond),
			"", strconv.FormatInt(r.Bound.Nanoseconds(), 10), strconv.FormatInt(r.Gamma.Nanoseconds(), 10)},
		{kernels, "after-second-attack",
			strconv.Itoa(r.SamplesAfterSecond), strconv.Itoa(r.ViolationsAfterSecond),
			fmt.Sprintf("%.0f", r.MaxAfterSecondNS),
			strconv.FormatInt(r.Bound.Nanoseconds(), 10), strconv.FormatInt(r.Gamma.Nanoseconds(), 10)},
	}
}

// Figure implements Figurer: the bound parameters, the attack schedule, the
// violation counts around the second attack and the precision series.
func (r CyberResilienceResult) Figure() string {
	figure := "Fig. 3a (identical kernels)"
	paper := "paper: second compromise at 00:31:52 breaks the bound; nodes lose synchronization"
	if r.Config.DiverseKernels {
		figure = "Fig. 3b (diverse kernels)"
		paper = "paper: second exploit fails; precision stays within Pi+gamma"
	}
	var b strings.Builder
	writePlanLine(&b, r.Config.ChaosPlan)
	fmt.Fprintf(&b, "=== %s — seed %d, duration %v ===\n", figure, r.Config.Seed, r.Config.Duration)
	fmt.Fprintf(&b, "bound parameters: E = %v, Gamma = %v, Pi = %v, gamma = %v\n",
		r.ReadingError, r.DriftOffset, r.Bound, r.Gamma)
	fmt.Fprintf(&b, "attack schedule: first %v, second %v\n", r.FirstAttackAt, r.SecondAttackAt)
	for _, e := range r.ExploitResults {
		fmt.Fprintf(&b, "   %s\n", e)
	}
	fmt.Fprintf(&b, "samples: %d before second attack (%d violations), %d after (%d violations, max %.0f ns)\n",
		r.SamplesBeforeSecond, r.ViolationsBeforeSecond,
		r.SamplesAfterSecond, r.ViolationsAfterSecond, r.MaxAfterSecondNS)
	fmt.Fprintf(&b, "%s\n\n", paper)
	b.WriteString(RenderSeries(r.Windows, r.Bound, r.Gamma, 18))
	return b.String()
}

// CyberResilience runs the Fig. 3a / Fig. 3b experiment: an attacker with
// user credentials on the grandmasters of dom1 (c11) and dom4 (c41)
// escalates via CVE-2018-18955 and replaces benign ptp4l instances with
// malicious ones shifting preciseOriginTimestamps by −24 µs. The chaos
// engine and the exploits attach at t=0, so the run has no shared prefix.
func CyberResilience(ctx context.Context, cfg CyberResilienceConfig) (*CyberResilienceResult, error) {
	cfg = cfg.withDefaults()
	sysCfg := core.NewConfig(cfg.Seed)
	sysCfg.HoldoverWindow = cfg.HoldoverWindow
	if cfg.DiverseKernels {
		sysCfg.DiversifyKernels("c41")
	}
	res, _, err := runPoints(ctx, campaign{duration: cfg.Duration, parallel: 1},
		[]point[*CyberResilienceResult]{{name: "resilience", cfg: sysCfg, run: cfg.run}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// run attaches the chaos engine and schedules both exploits on a started
// system, runs it and counts the violations around the second attack.
func (cfg CyberResilienceConfig) run(sys *core.System, remaining time.Duration) (*CyberResilienceResult, []obs.Metric, error) {
	stopChaos, err := startChaos(sys, cfg.ChaosPlan, nil)
	if err != nil {
		return nil, nil, err
	}

	// Scale the paper's attack instants (21:42 and 31:52 into 1 h).
	first := time.Duration(float64(cfg.Duration) * (21*60 + 42) / 3600)
	second := time.Duration(float64(cfg.Duration) * (31*60 + 52) / 3600)

	atk := attack.NewAttacker(attack.DefaultVulnDB(), attack.CVE201818955, "c11", "c41")
	res := &CyberResilienceResult{Config: cfg, FirstAttackAt: first, SecondAttackAt: second}

	exploit := func(target string) func() {
		return func() {
			vm, ok := sys.VM(target)
			if !ok {
				return
			}
			r := atk.Exploit(vm, attack.MaliciousOriginOffsetNS)
			sys.LogEvent(core.Event{
				At: sys.Now(), Node: "", VM: target, Kind: "exploit", Detail: r.String(),
			})
		}
	}
	sys.Scheduler().At(sim.Time(first), exploit("c41"))
	sys.Scheduler().At(sim.Time(second), exploit("c11"))

	if err := sys.RunFor(remaining); err != nil {
		return nil, nil, err
	}
	stopChaos()

	res.Samples = sys.Collector().Samples()
	res.Windows = measure.Aggregate(res.Samples, 2*time.Minute)
	res.Gamma = sys.Collector().Gamma()
	res.DriftOffset = sys.DriftOffset()
	res.ReadingError, _ = sys.ReadingError()
	res.Bound, _ = sys.PrecisionBound()
	res.ExploitResults = atk.Results()

	limit := float64(res.Bound + res.Gamma)
	// Skip the start-up phase when counting pre-attack violations.
	settle := (30 * time.Second).Seconds()
	for _, s := range res.Samples {
		switch {
		case s.AtSec < settle:
		case s.AtSec < second.Seconds():
			res.SamplesBeforeSecond++
			if s.PiStarNS > limit {
				res.ViolationsBeforeSecond++
			}
		default:
			res.SamplesAfterSecond++
			if s.PiStarNS > limit {
				res.ViolationsAfterSecond++
			}
			if s.PiStarNS > res.MaxAfterSecondNS {
				res.MaxAfterSecondNS = s.PiStarNS
			}
		}
	}
	res.Obs = sys.Metrics().Snapshot()
	return res, res.Obs, nil
}
