package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/fta"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// BoundsConfig parameterises the §III-A3 methodology run. Durations are
// nanoseconds on the wire.
type BoundsConfig struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration,omitempty"` // fault-free observation window
	// Metrics optionally instruments the run's pool (fork accounting).
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares the prefix snapshot through a campaign
	// cache (the job server's LRU). The run forks only through a cache:
	// without one a lone run would pay a snapshot for nothing, so it runs
	// cold.
	Snapshots runner.SnapshotCache `json:"-"`
}

func (c BoundsConfig) withDefaults() BoundsConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Minute
	}
	return c
}

// Validate implements Validator.
func (c BoundsConfig) Validate() error {
	return checkDurations(field{"duration", c.Duration})
}

// BoundsResult reproduces the paper's bound-instantiation numbers:
// d_min, d_max, E, Γ, Π and γ (§III-B quotes d_min = 4120 ns,
// d_max = 9188 ns, E = 5068 ns, Π = 12.636 µs, γ = 1313 ns).
type BoundsResult struct {
	ObsSnapshot
	Config BoundsConfig

	DMin, DMax   time.Duration
	ReadingError time.Duration // E = d_max − d_min
	DriftOffset  time.Duration // Γ = 2·r_max·S
	U            float64       // u(N, f)
	Bound        time.Duration // Π = u·(E+Γ)
	Gamma        time.Duration // measurement error over the VLAN paths
	SyncPaths    int
}

// Summary renders the instantiated bound in one line.
func (r *BoundsResult) Summary() string {
	return fmt.Sprintf(
		"bound methodology (%v fault-free, %d sync paths): E = %v, Γ = %v, u = %.2f → Π = %v, γ = %v",
		r.Config.Duration, r.SyncPaths, r.ReadingError, r.DriftOffset, r.U, r.Bound, r.Gamma)
}

// Rows renders the methodology parameters as a name/value table.
func (r *BoundsResult) Rows() [][]string {
	ns := func(d time.Duration) string { return fmt.Sprintf("%d", d.Nanoseconds()) }
	return [][]string{
		{"parameter", "value"},
		{"d_min_ns", ns(r.DMin)},
		{"d_max_ns", ns(r.DMax)},
		{"reading_error_ns", ns(r.ReadingError)},
		{"drift_offset_ns", ns(r.DriftOffset)},
		{"u", fmt.Sprintf("%.2f", r.U)},
		{"bound_ns", ns(r.Bound)},
		{"gamma_ns", ns(r.Gamma)},
		{"sync_paths", fmt.Sprintf("%d", r.SyncPaths)},
	}
}

// Table renders the methodology numbers as the rows the paper reports.
func (r BoundsResult) Table() []string {
	return []string{
		fmt.Sprintf("d_min (min observed path latency)        %12v", r.DMin),
		fmt.Sprintf("d_max (max observed path latency)        %12v", r.DMax),
		fmt.Sprintf("E = d_max - d_min (reading error)        %12v", r.ReadingError),
		fmt.Sprintf("Gamma = 2*r_max*S (drift offset)         %12v", r.DriftOffset),
		fmt.Sprintf("u(N,f)                                   %12.2f", r.U),
		fmt.Sprintf("Pi = u(N,f)*(E+Gamma) (precision bound)  %12v", r.Bound),
		fmt.Sprintf("gamma (measurement error, eq. 3.2)       %12v", r.Gamma),
		fmt.Sprintf("observed sync paths                      %12d", r.SyncPaths),
	}
}

// Figure implements Figurer: the methodology table against the paper's
// §III-B and §III-C numbers.
func (r *BoundsResult) Figure() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== §III-A3 bound methodology — seed %d, %v fault-free ===\n", r.Config.Seed, r.Config.Duration)
	for _, row := range r.Table() {
		b.WriteString(row + "\n")
	}
	b.WriteString("\npaper (§III-B):  d_min=4120ns d_max=9188ns E=5068ns Pi=12.636µs gamma=1313ns\n")
	b.WriteString("paper (§III-C):  Pi=11.42µs gamma=856ns\n")
	return b.String()
}

// Bounds runs the fault-free methodology experiment and instantiates the
// convergence-function bound from measured latencies. With a snapshot cache
// attached it forks the rest of the window from a snapshot taken near its
// middle: the run has no divergent machinery, so the result is
// bit-identical either way.
func Bounds(ctx context.Context, cfg BoundsConfig) (*BoundsResult, error) {
	cfg = cfg.withDefaults()
	sysCfg := core.NewConfig(cfg.Seed)
	res, ms, err := runPoints(ctx, campaign{
		duration:  cfg.Duration,
		diverge:   cfg.Duration / 2,
		parallel:  1,
		metrics:   cfg.Metrics,
		snapshots: cfg.Snapshots,
	}, []point[*BoundsResult]{{
		name: "bounds",
		cfg:  sysCfg,
		run: func(sys *core.System, remaining time.Duration) (*BoundsResult, []obs.Metric, error) {
			if err := sys.RunFor(remaining); err != nil {
				return nil, nil, err
			}
			return boundsCollect(cfg, sysCfg, sys), sys.Metrics().Snapshot(), nil
		},
	}})
	if err != nil {
		return nil, err
	}
	res[0].Obs = ms[0]
	return res[0], nil
}

// boundsCollect instantiates the bound from a finished run.
func boundsCollect(cfg BoundsConfig, sysCfg core.Config, sys *core.System) *BoundsResult {
	res := &BoundsResult{Config: cfg}
	res.DMin, res.DMax, _ = sys.SyncLatencies().Extrema()
	res.ReadingError = res.DMax - res.DMin
	res.DriftOffset = sys.DriftOffset()
	res.U = fta.U(sysCfg.Nodes, sysCfg.F)
	res.Bound = fta.Bound(sysCfg.Nodes, sysCfg.F, res.ReadingError, res.DriftOffset)
	res.Gamma = sys.Collector().Gamma()
	res.SyncPaths = sys.SyncLatencies().Paths()
	return res
}
