package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// NetworkChaosConfig parameterises the network chaos campaign: a sweep of
// Gilbert–Elliott burst-loss intensities and network partition durations
// against the paper's precision bounds, with the shared servo's holdover
// mode armed.
type NetworkChaosConfig struct {
	Seed int64 `json:"seed"`
	// Duration of each sweep point's run.
	Duration time.Duration `json:"duration,omitempty"`
	// ChaosStart delays the first fault, letting the system converge.
	ChaosStart time.Duration `json:"chaos_start,omitempty"`
	// BurstBadLoss sweeps the bad-state loss rate of a periodic burst-loss
	// storm on every mesh link.
	BurstBadLoss []float64 `json:"burst_bad_loss,omitempty"`
	// PartitionDurations sweeps how long the mesh stays split into
	// {sw1, sw2} | {sw3, sw4}.
	PartitionDurations []time.Duration `json:"partition_durations,omitempty"`
	// HoldoverWindow arms the ptp4l holdover watchdog (§ DESIGN.md "Chaos
	// scenarios"); zero would leave the legacy free-run behavior.
	HoldoverWindow time.Duration `json:"holdover_window,omitempty"`
	// PlanPath optionally runs one custom plan file instead of the built-in
	// sweep.
	PlanPath string `json:"plan_path,omitempty"`
	// Parallel is the runner's worker count (0 = GOMAXPROCS, 1 =
	// sequential); the table is identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Metrics optionally instruments the campaign's runner pool (fork and
	// fallback accounting). The registry must be campaign-level, never a
	// simulation's.
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares the prefix snapshot through a campaign
	// cache (the job server's LRU), so concurrent campaigns with the same
	// convergence prefix fork from one snapshot. Without one the sweep
	// still runs its prefix (everything before ChaosStart) once and forks
	// every point from it. Either way a plan acting before the boundary (or
	// anchored relative to engine start) makes the sweep run cold (see
	// DESIGN.md "Warm-state snapshots").
	Snapshots runner.SnapshotCache `json:"-"`
}

// Validate implements Validator.
func (c NetworkChaosConfig) Validate() error {
	for i, p := range c.BurstBadLoss {
		if err := checkRate(fmt.Sprintf("burst_bad_loss[%d]", i), p); err != nil {
			return err
		}
	}
	for i, d := range c.PartitionDurations {
		if d <= 0 {
			return fmt.Errorf("partition_durations[%d] must be positive (got %v)", i, d)
		}
	}
	return checkDurations(
		field{"duration", c.Duration},
		field{"chaos_start", c.ChaosStart},
		field{"holdover_window", c.HoldoverWindow})
}

func (c NetworkChaosConfig) withDefaults() NetworkChaosConfig {
	if c.Duration <= 0 {
		c.Duration = 8 * time.Minute
	}
	if c.ChaosStart <= 0 {
		c.ChaosStart = 3 * time.Minute
	}
	// The built-in sweep fills in only when the config names no point of
	// its own: a lone burst_bad_loss or partition_durations list is the
	// whole sweep.
	if len(c.BurstBadLoss) == 0 && len(c.PartitionDurations) == 0 && c.PlanPath == "" {
		c.BurstBadLoss = []float64{0.25, 0.9}
		c.PartitionDurations = []time.Duration{time.Second, 30 * time.Second}
	}
	if c.HoldoverWindow <= 0 {
		c.HoldoverWindow = 2 * time.Second
	}
	return c
}

// ChaosPoint is one sweep point's outcome: precision statistics plus the
// chaos and holdover accounting read back from the obs registry.
type ChaosPoint struct {
	Label           string
	MeanPrecisionNS float64
	MaxPrecisionNS  float64
	BoundNS         float64
	Violations      int
	Samples         int

	ChaosActions int
	// FaultDropped counts frames killed by downed links and failed bridges;
	// FramesLost counts stochastic (burst) loss.
	FaultDropped    int
	FramesLost      int
	HoldoverEntered int
	HoldoverExited  int
}

// NetworkChaosResult is the sweep table plus the last point's metrics
// snapshot.
type NetworkChaosResult struct {
	ObsSnapshot
	Config NetworkChaosConfig
	Points []ChaosPoint
}

// Summary renders the campaign's one-line verdict.
func (r *NetworkChaosResult) Summary() string {
	var actions, entered, exited, violations int
	for _, p := range r.Points {
		actions += p.ChaosActions
		entered += p.HoldoverEntered
		exited += p.HoldoverExited
		violations += p.Violations
	}
	return fmt.Sprintf(
		"network chaos (%d points, %d actions): holdover entered %d / exited %d; %d samples beyond Π+γ in total",
		len(r.Points), actions, entered, exited, violations)
}

// Rows renders the sweep table.
func (r *NetworkChaosResult) Rows() [][]string {
	rows := [][]string{{
		"label", "mean_ns", "max_ns", "bound_ns", "violations", "samples",
		"chaos_actions", "fault_dropped", "frames_lost", "holdover_entered", "holdover_exited",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.0f", p.MeanPrecisionNS),
			fmt.Sprintf("%.0f", p.MaxPrecisionNS),
			fmt.Sprintf("%.0f", p.BoundNS),
			strconv.Itoa(p.Violations),
			strconv.Itoa(p.Samples),
			strconv.Itoa(p.ChaosActions),
			strconv.Itoa(p.FaultDropped),
			strconv.Itoa(p.FramesLost),
			strconv.Itoa(p.HoldoverEntered),
			strconv.Itoa(p.HoldoverExited),
		})
	}
	return rows
}

// meshLinkNames lists the full-mesh switch links of the paper's 4-node
// testbed in canonical low-high order.
func meshLinkNames() []string {
	return []string{"sw1-sw2", "sw1-sw3", "sw1-sw4", "sw2-sw3", "sw2-sw4", "sw3-sw4"}
}

// burstPlan storms every mesh link with Gilbert–Elliott burst loss: one
// minute of storm every two minutes, starting at chaosStart.
func burstPlan(badLoss float64, chaosStart time.Duration) *chaos.Plan {
	return &chaos.Plan{
		Name: fmt.Sprintf("burst bad=%.2f", badLoss),
		Actions: []chaos.Action{{
			Op:        chaos.OpBurstLoss,
			Links:     meshLinkNames(),
			Every:     chaos.Duration(2 * time.Minute),
			Start:     chaos.Duration(chaosStart),
			Duration:  chaos.Duration(time.Minute),
			BadLoss:   badLoss,
			GoodToBad: 0.05,
			BadToGood: 0.2,
		}},
	}
}

// partitionPlan splits the mesh into {sw1, sw2} | {sw3, sw4} for d. The
// measurement VM (c22, on the sw2 side) then sees only two fresh domains —
// below the 2f+1 = 3 quorum — so a partition longer than the holdover
// window drives its servo into holdover.
func partitionPlan(d, chaosStart time.Duration) *chaos.Plan {
	return &chaos.Plan{
		Name: fmt.Sprintf("partition %v", d),
		Actions: []chaos.Action{{
			Op:       chaos.OpPartition,
			Groups:   [][]string{{"sw1", "sw2"}, {"sw3", "sw4"}},
			At:       chaos.Duration(chaosStart),
			Duration: chaos.Duration(d),
		}},
	}
}

// Plans returns the sweep's scenario plans in point order: the custom plan
// file when PlanPath is set, otherwise one burst-loss plan per intensity
// and one partition plan per duration.
func (c NetworkChaosConfig) Plans() ([]*chaos.Plan, error) {
	c = c.withDefaults()
	if c.PlanPath != "" {
		p, err := chaos.Load(c.PlanPath)
		if err != nil {
			return nil, err
		}
		return []*chaos.Plan{p}, nil
	}
	var plans []*chaos.Plan
	for _, bad := range c.BurstBadLoss {
		plans = append(plans, burstPlan(bad, c.ChaosStart))
	}
	for _, d := range c.PartitionDurations {
		plans = append(plans, partitionPlan(d, c.ChaosStart))
	}
	return plans, nil
}

// sumMetric totals a metric's value across all label sets in a snapshot.
func sumMetric(ms []obs.Metric, name string) int {
	var s float64
	for _, m := range ms {
		if m.Name == name {
			s += m.Value
		}
	}
	return int(s)
}

// NetworkChaos runs the chaos campaign: every burst-loss intensity and
// every partition duration as an independent same-seed run, each executing
// its scenario plan against the full system with holdover armed. Two runs
// of the same config are byte-identical (the engine consumes no
// randomness; all stochastic loss draws come from the per-link seeded loss
// streams). Every point shares one system config — the plans differ, not
// the warm-up — so every point forks from one prefix, unless some plan acts
// before the boundary and the whole sweep runs cold.
func NetworkChaos(ctx context.Context, cfg NetworkChaosConfig) (*NetworkChaosResult, error) {
	cfg = cfg.withDefaults()

	plans, err := cfg.Plans()
	if err != nil {
		return nil, err
	}

	sysCfg := chaosSystemConfig(cfg)
	points := make([]point[ChaosPoint], len(plans))
	for i, plan := range plans {
		points[i] = point[ChaosPoint]{
			name: plan.Name,
			cfg:  sysCfg,
			run: func(sys *core.System, remaining time.Duration) (ChaosPoint, []obs.Metric, error) {
				stop, err := startChaos(sys, plan, nil)
				if err != nil {
					return ChaosPoint{}, nil, err
				}
				if err := sys.RunFor(remaining); err != nil {
					return ChaosPoint{}, nil, err
				}
				stop()
				return chaosCollect(sys, plan)
			},
		}
	}
	res := &NetworkChaosResult{Config: cfg}
	var ms [][]obs.Metric
	res.Points, ms, err = runPoints(ctx, campaign{
		duration:  cfg.Duration,
		diverge:   cfg.ChaosStart,
		plans:     plans,
		parallel:  cfg.Parallel,
		metrics:   cfg.Metrics,
		snapshots: cfg.Snapshots,
	}, points)
	if err != nil {
		return nil, err
	}
	res.Obs = lastSnapshot(ms)
	return res, nil
}

// chaosSystemConfig is the sweep's shared system configuration: every plan
// runs against the same seed and holdover window.
func chaosSystemConfig(cfg NetworkChaosConfig) core.Config {
	sysCfg := core.NewConfig(cfg.Seed)
	sysCfg.HoldoverWindow = cfg.HoldoverWindow
	return sysCfg
}

// chaosCollect reads one finished run's precision statistics and chaos
// accounting back out of the system.
func chaosCollect(sys *core.System, plan *chaos.Plan) (ChaosPoint, []obs.Metric, error) {
	bound, _ := sys.PrecisionBound()
	limit := float64(bound + sys.Collector().Gamma())
	stats, violations, samples := steadyStats(sys.Collector().Samples(), (90 * time.Second).Seconds(), limit)
	snap := sys.Metrics().Snapshot()
	return ChaosPoint{
		Label:           plan.Name,
		MeanPrecisionNS: stats.MeanNS,
		MaxPrecisionNS:  stats.MaxNS,
		BoundNS:         float64(bound),
		Violations:      violations,
		Samples:         samples,
		ChaosActions:    sumMetric(snap, "chaos_actions"),
		FaultDropped:    sumMetric(snap, "netsim_frames_fault_dropped"),
		FramesLost:      sumMetric(snap, "netsim_frames_lost"),
		HoldoverEntered: sumMetric(snap, "ptp4l_holdover_entered"),
		HoldoverExited:  sumMetric(snap, "ptp4l_holdover_exited"),
	}, snap, nil
}
