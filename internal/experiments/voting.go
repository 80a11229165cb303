package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// VotingConfig parameterises the 2f+1 fail-consistent experiment (§II-A):
// with three clock-synchronization VMs per node and consistency voting in
// the hypervisor monitor, a VM that publishes *wrong but fresh* clock
// parameters is voted out; the fail-silent (freshness-only) monitor cannot
// see it.
type VotingConfig struct {
	Seed int64 `json:"seed"`
	// CorruptionNS is the clock error injected into the active VM's PHC
	// (a fail-consistent fault). Default 1 ms.
	CorruptionNS float64 `json:"corruption_ns,omitempty"`
	// Settle before the injection. Default 2 min.
	Settle time.Duration `json:"settle,omitempty"`
	// Observe after the injection. Default 1 min.
	Observe time.Duration `json:"observe,omitempty"`
}

// Validate implements Validator.
func (c VotingConfig) Validate() error {
	if err := checkFinite("corruption_ns", c.CorruptionNS); err != nil {
		return err
	}
	return checkDurations(
		field{"settle", c.Settle},
		field{"observe", c.Observe})
}

func (c VotingConfig) withDefaults() VotingConfig {
	if c.CorruptionNS == 0 {
		c.CorruptionNS = 1e6
	}
	if c.Settle <= 0 {
		c.Settle = 2 * time.Minute
	}
	if c.Observe <= 0 {
		c.Observe = time.Minute
	}
	return c
}

// VotingResult contrasts the voting monitor against the freshness-only one.
type VotingResult struct {
	Config VotingConfig
	// WithVotingMaxErrNS / WithoutVotingMaxErrNS are the worst observed
	// CLOCK_SYNCTIME deviations of the faulty node from its peers after
	// the corruption.
	WithVotingMaxErrNS    float64
	WithoutVotingMaxErrNS float64
	// WithVotingErrIntegral / WithoutVotingErrIntegral integrate the
	// deviation over the observation window (ns·s) — the damage a
	// dependent application accumulates.
	WithVotingErrIntegral    float64
	WithoutVotingErrIntegral float64
	// VotingDetection is the time from injection to the monitor's
	// failover; zero means it never fired.
	VotingDetection time.Duration
	VotingTakeovers int
}

// Summary renders the verdict.
func (r VotingResult) Summary() string {
	return fmt.Sprintf(
		"fail-consistent fault (%.0f ns corruption): voting monitor failed over in %v (error integral %.0f ns·s); freshness-only monitor never detected it (error integral %.0f ns·s)",
		r.Config.CorruptionNS, r.VotingDetection, r.WithVotingErrIntegral, r.WithoutVotingErrIntegral)
}

// Rows renders the per-monitor table.
func (r *VotingResult) Rows() [][]string {
	return [][]string{
		{"monitor", "max_err_ns", "err_integral_ns_s", "detection_ms", "takeovers"},
		{"voting", fmt.Sprintf("%.0f", r.WithVotingMaxErrNS),
			fmt.Sprintf("%.0f", r.WithVotingErrIntegral),
			fmt.Sprintf("%d", r.VotingDetection.Milliseconds()),
			fmt.Sprintf("%d", r.VotingTakeovers)},
		{"freshness-only", fmt.Sprintf("%.0f", r.WithoutVotingMaxErrNS),
			fmt.Sprintf("%.0f", r.WithoutVotingErrIntegral), "0", "0"},
	}
}

// votingRun is one monitor's observation of the corrupted node.
type votingRun struct {
	maxErr, errIntegral float64
	detection           time.Duration
	takeovers           int
}

// VotingFailover runs the experiment twice — with the monitor's
// consistency vote enabled (2f+1 = 3 VMs per node) and disabled — and
// reports the observed node-level clock error. The observation loop steps
// each system from t=0, so the runs share no prefix.
func VotingFailover(ctx context.Context, cfg VotingConfig) (*VotingResult, error) {
	cfg = cfg.withDefaults()
	monitor := func(name string, voteThresholdNS float64) point[votingRun] {
		sysCfg := core.NewConfig(cfg.Seed)
		sysCfg.VMsPerNode = 3 // 2f+1 for f = 1 fail-consistent
		sysCfg.VoteThresholdNS = voteThresholdNS
		return point[votingRun]{name: name, cfg: sysCfg, run: cfg.run}
	}
	runs, _, err := runPoints(ctx, campaign{duration: cfg.Settle + cfg.Observe, parallel: 1},
		[]point[votingRun]{monitor("voting", 5000), monitor("freshness-only", 0)})
	if err != nil {
		return nil, err
	}
	return &VotingResult{
		Config:                   cfg,
		WithVotingMaxErrNS:       runs[0].maxErr,
		WithoutVotingMaxErrNS:    runs[1].maxErr,
		WithVotingErrIntegral:    runs[0].errIntegral,
		WithoutVotingErrIntegral: runs[1].errIntegral,
		VotingDetection:          runs[0].detection,
		VotingTakeovers:          runs[0].takeovers,
	}, nil
}

// run settles a started system, corrupts dev3's active VM and samples the
// node's deviation from its peers every 50 ms.
func (cfg VotingConfig) run(sys *core.System, _ time.Duration) (votingRun, []obs.Metric, error) {
	var out votingRun
	if err := sys.RunFor(cfg.Settle); err != nil {
		return out, nil, err
	}

	node := sys.Node(2) // dev3's active VM gets corrupted
	active := node.STSHMEM().Active()
	vm := node.VM(active)
	injectedAt := sys.Now()
	vm.Stack.NIC().PHC().Step(cfg.CorruptionNS)

	var detectedAt sim.Time
	const stepSec = 0.05
	end := sys.Now().Add(cfg.Observe)
	for sys.Now() < end {
		if err := sys.RunFor(50 * time.Millisecond); err != nil {
			return out, nil, err
		}
		if detectedAt == 0 && node.STSHMEM().Active() != active {
			detectedAt = sys.Now()
		}
		v, ok := node.SyncTimeNow()
		if !ok {
			continue
		}
		var sum float64
		var n int
		for i, other := range sys.Nodes() {
			if i == 2 {
				continue
			}
			if ov, ok := other.SyncTimeNow(); ok {
				sum += ov
				n++
			}
		}
		if n == 0 {
			continue
		}
		e := math.Abs(v - sum/float64(n))
		if e > out.maxErr {
			out.maxErr = e
		}
		out.errIntegral += e * stepSec
	}
	if detectedAt != 0 {
		out.detection = detectedAt.Sub(injectedAt)
	}
	out.takeovers = int(node.Takeovers())
	return out, nil, nil
}
