package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// SweepPoint is one row of a parameter-sweep table.
type SweepPoint struct {
	Label           string
	MeanPrecisionNS float64
	MaxPrecisionNS  float64
	BoundNS         float64
	Violations      int
	Samples         int
}

// String renders the row.
func (p SweepPoint) String() string {
	return fmt.Sprintf("%-22s avg %8.0f ns  max %9.0f ns  bound %9.0f ns  violations %d/%d",
		p.Label, p.MeanPrecisionNS, p.MaxPrecisionNS, p.BoundNS, p.Violations, p.Samples)
}

// SweepResult is a parameter sweep's table plus its identity.
type SweepResult struct {
	Name   string
	Points []SweepPoint
}

// Summary condenses the table into the sweep's one-line verdict.
func (r *SweepResult) Summary() string {
	if len(r.Points) == 0 {
		return r.Name + ": no points"
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	var violations int
	for _, p := range r.Points {
		violations += p.Violations
	}
	return fmt.Sprintf("%s (%d points, %s → %s): bound %.0f → %.0f ns, mean precision %.0f → %.0f ns, %d violations in total",
		r.Name, len(r.Points), first.Label, last.Label,
		first.BoundNS, last.BoundNS, first.MeanPrecisionNS, last.MeanPrecisionNS, violations)
}

// Rows renders the sweep table.
func (r *SweepResult) Rows() [][]string {
	rows := [][]string{{"label", "mean_ns", "max_ns", "bound_ns", "violations", "samples"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.0f", p.MeanPrecisionNS),
			fmt.Sprintf("%.0f", p.MaxPrecisionNS),
			fmt.Sprintf("%.0f", p.BoundNS),
			strconv.Itoa(p.Violations),
			strconv.Itoa(p.Samples),
		})
	}
	return rows
}

// sweepRun is a sweep point's run: the remaining time, then the
// steady-state row from settleSec on, judged against Π. SweepResult carries
// no metrics, so no snapshot is taken.
func sweepRun(label string, settleSec float64) func(*core.System, time.Duration) (SweepPoint, []obs.Metric, error) {
	return func(sys *core.System, remaining time.Duration) (SweepPoint, []obs.Metric, error) {
		if err := sys.RunFor(remaining); err != nil {
			return SweepPoint{}, nil, err
		}
		bound, _ := sys.PrecisionBound()
		stats, violations, samples := steadyStats(sys.Collector().Samples(), settleSec, float64(bound))
		return SweepPoint{
			Label:           label,
			MeanPrecisionNS: stats.MeanNS,
			MaxPrecisionNS:  stats.MaxNS,
			BoundNS:         float64(bound),
			Violations:      violations,
			Samples:         samples,
		}, nil, nil
	}
}

// IntervalSweepConfig parameterises IntervalSweep. Durations are
// nanoseconds on the wire.
type IntervalSweepConfig struct {
	Seed      int64           `json:"seed"`
	Intervals []time.Duration `json:"intervals,omitempty"`
	Duration  time.Duration   `json:"duration,omitempty"`
	// Parallel is the runner's worker count (0 = GOMAXPROCS, 1 =
	// sequential); the table is identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Metrics optionally instruments the campaign's runner pool.
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares the prefix snapshot through a campaign
	// cache (the job server's LRU). The swept parameter shapes the warm-up
	// itself, so only the first point can fork from it; without a cache
	// every point runs cold.
	Snapshots runner.SnapshotCache `json:"-"`
}

// Validate implements Validator.
func (c IntervalSweepConfig) Validate() error {
	for i, s := range c.Intervals {
		if s <= 0 {
			return fmt.Errorf("intervals[%d] must be positive (got %v)", i, s)
		}
	}
	return checkDurations(field{"duration", c.Duration})
}

func (c IntervalSweepConfig) withDefaults() IntervalSweepConfig {
	if len(c.Intervals) == 0 {
		c.Intervals = []time.Duration{
			62500 * time.Microsecond,
			125 * time.Millisecond,
			250 * time.Millisecond,
			500 * time.Millisecond,
		}
	}
	if c.Duration <= 0 {
		c.Duration = 6 * time.Minute
	}
	return c
}

// IntervalSweep measures steady-state precision and the analytic bound
// across synchronization intervals S. The drift-offset term Γ = 2·r_max·S
// grows linearly with S, so the bound widens while the achieved precision
// degrades more slowly — the engineering trade-off behind the paper's
// choice of S = 125 ms. The run is fault-free; S shapes the warm-up of
// every point, so the points run cold unless a snapshot cache is attached,
// and then only the first forks (halfway).
func IntervalSweep(ctx context.Context, cfg IntervalSweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	points := make([]point[SweepPoint], len(cfg.Intervals))
	for i, s := range cfg.Intervals {
		sysCfg := core.NewConfig(cfg.Seed)
		sysCfg.SyncInterval = s
		label := fmt.Sprintf("S = %v", s)
		points[i] = point[SweepPoint]{name: label, cfg: sysCfg, run: sweepRun(label, (90 * time.Second).Seconds())}
	}
	res, _, err := runPoints(ctx, campaign{
		duration:  cfg.Duration,
		diverge:   cfg.Duration / 2,
		parallel:  cfg.Parallel,
		metrics:   cfg.Metrics,
		snapshots: cfg.Snapshots,
	}, points)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Name: "synchronization-interval sweep", Points: res}, nil
}

// DomainSweepConfig parameterises DomainSweep. Durations are nanoseconds on
// the wire.
type DomainSweepConfig struct {
	Seed     int64         `json:"seed"`
	Counts   []int         `json:"counts,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`
	// Parallel is the runner's worker count (0 = GOMAXPROCS, 1 =
	// sequential); the table is identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Metrics optionally instruments the campaign's runner pool.
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares the prefix snapshot through a campaign
	// cache (the job server's LRU). The swept parameter shapes the warm-up
	// itself, so only the first point can fork from it; without a cache
	// every point runs cold.
	Snapshots runner.SnapshotCache `json:"-"`
}

// Validate implements Validator.
func (c DomainSweepConfig) Validate() error {
	// Each domain's grandmaster is the first VM of its own node.
	nodes := core.NewConfig(c.Seed).Nodes
	for i, m := range c.Counts {
		if m < 2 || m > nodes {
			return fmt.Errorf("counts[%d] must be 2 to %d domains, one per node (got %d)", i, nodes, m)
		}
	}
	return checkDurations(field{"duration", c.Duration})
}

func (c DomainSweepConfig) withDefaults() DomainSweepConfig {
	if len(c.Counts) == 0 {
		c.Counts = []int{2, 3, 4}
	}
	if c.Duration <= 0 {
		c.Duration = 8 * time.Minute
	}
	return c
}

// DomainSweep measures Byzantine masking across domain counts M with one
// compromised grandmaster: M = 2 cannot mask any fault (N < 2f+1 for
// f = 1), M = 3 masks via the median, M = 4 is the paper's configuration.
// The compromise is scheduled in each point's setup, so a forked first
// point's prefix carries it pending; the other counts change the prefix
// hash and run cold.
func DomainSweep(ctx context.Context, cfg DomainSweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	attackAt := cfg.Duration / 3
	points := make([]point[SweepPoint], len(cfg.Counts))
	for i, m := range cfg.Counts {
		sysCfg := core.NewConfig(cfg.Seed)
		sysCfg.DomainCount = m
		label := fmt.Sprintf("M = %d domains", m)
		points[i] = point[SweepPoint]{
			name: label,
			cfg:  sysCfg,
			// Compromise the highest-numbered domain's grandmaster.
			setup: compromiseAt(attackAt, core.VMName(m-1, 0)),
			run:   sweepRun(label, attackAt.Seconds()+30),
		}
	}
	res, _, err := runPoints(ctx, campaign{
		duration:  cfg.Duration,
		diverge:   attackAt,
		parallel:  cfg.Parallel,
		metrics:   cfg.Metrics,
		snapshots: cfg.Snapshots,
	}, points)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Name: "domain-count sweep", Points: res}, nil
}
