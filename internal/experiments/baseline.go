package experiments

import (
	"context"
	"fmt"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/core"
	"gptpfta/internal/fta"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// BaselineConfig parameterises the ablation runs.
type BaselineConfig struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration,omitempty"`
}

func (c BaselineConfig) withDefaults() BaselineConfig {
	if c.Duration <= 0 {
		c.Duration = 20 * time.Minute
	}
	return c
}

// Validate implements Validator.
func (c BaselineConfig) Validate() error {
	return checkDurations(field{"duration", c.Duration})
}

// ComparisonResult contrasts an ablated variant against the paper's
// architecture on the same seed and horizon.
type ComparisonResult struct {
	ObsSnapshot
	Name string
	// OursStats / VariantStats are the steady-state precision statistics.
	OursStats, VariantStats measure.Stats
	// OursViolations / VariantViolations count samples beyond Π+γ.
	OursViolations, VariantViolations int
	OursSamples, VariantSamples       int
	BoundNS                           float64
}

// Summary renders the verdict.
func (r ComparisonResult) Summary() string {
	return fmt.Sprintf("%s: ours avg %.0fns (%d/%d beyond bound) vs variant avg %.0fns (%d/%d beyond bound)",
		r.Name, r.OursStats.MeanNS, r.OursViolations, r.OursSamples,
		r.VariantStats.MeanNS, r.VariantViolations, r.VariantSamples)
}

// Rows renders the ours-vs-variant table.
func (r ComparisonResult) Rows() [][]string {
	row := func(name string, s measure.Stats, violations, samples int) []string {
		return []string{name, fmt.Sprintf("%.0f", s.MeanNS), fmt.Sprintf("%.0f", s.MaxNS),
			fmt.Sprintf("%d", violations), fmt.Sprintf("%d", samples), fmt.Sprintf("%.0f", r.BoundNS)}
	}
	return [][]string{
		{"variant", "mean_ns", "max_ns", "violations", "samples", "limit_ns"},
		row("ours", r.OursStats, r.OursViolations, r.OursSamples),
		row("variant", r.VariantStats, r.VariantViolations, r.VariantSamples),
	}
}

// steadyStats summarises the samples taken at or after settleSec: their
// precision statistics, how many exceed boundNS, and how many there are.
func steadyStats(samples []measure.Sample, settleSec, boundNS float64) (measure.Stats, int, int) {
	var steady []measure.Sample
	for _, s := range samples {
		if s.AtSec >= settleSec {
			steady = append(steady, s)
		}
	}
	return measure.ComputeStats(steady), measure.ViolationCount(steady, boundNS), len(steady)
}

// compromiseAt returns a setup that turns target's grandmaster Byzantine
// (the paper's −24 µs origin falsification) at instant at.
func compromiseAt(at time.Duration, target string) func(*core.System) {
	return func(sys *core.System) {
		sys.Scheduler().At(sim.Time(at), func() {
			if vm, ok := sys.VM(target); ok {
				vm.Stack.Compromise(attack.MaliciousOriginOffsetNS)
			}
		})
	}
}

// comparisonRun is what a comparison keeps of one finished system.
type comparisonRun struct {
	samples []measure.Sample
	limitNS float64 // Π+γ
}

// comparisonPoint is one side of a comparison: cfg's system runs the whole
// horizon with setup (if any) attached at t=0.
func comparisonPoint(name string, cfg core.Config, setup func(*core.System)) point[comparisonRun] {
	return point[comparisonRun]{
		name:  name,
		cfg:   cfg,
		setup: setup,
		run: func(sys *core.System, remaining time.Duration) (comparisonRun, []obs.Metric, error) {
			if err := sys.RunFor(remaining); err != nil {
				return comparisonRun{}, nil, err
			}
			bound, _ := sys.PrecisionBound()
			limit := float64(bound + sys.Collector().Gamma())
			return comparisonRun{sys.Collector().Samples(), limit}, sys.Metrics().Snapshot(), nil
		},
	}
}

// compare runs the paper's architecture (ours) and an ablated variant for
// d and contrasts their precision after the first minute against ours'
// Π+γ. The two series of the merged metrics carry a "variant" label.
func compare(ctx context.Context, name string, d time.Duration, ours, variant point[comparisonRun]) (*ComparisonResult, error) {
	runs, ms, err := runPoints(ctx, campaign{duration: d, parallel: 1}, []point[comparisonRun]{ours, variant})
	if err != nil {
		return nil, err
	}
	limit := runs[0].limitNS
	settle := time.Minute.Seconds()
	res := &ComparisonResult{Name: name, BoundNS: limit}
	res.OursStats, res.OursViolations, res.OursSamples = steadyStats(runs[0].samples, settle, limit)
	res.VariantStats, res.VariantViolations, res.VariantSamples = steadyStats(runs[1].samples, settle, limit)
	res.Obs = append(obs.AddLabel(ms[0], "variant", "ours"), obs.AddLabel(ms[1], "variant", "variant")...)
	return res, nil
}

// BaselineNoStartupSync reproduces the paper's criticism of the
// Kyriakakis-style end system (§I): multi-domain aggregation restricted to
// PTP clients, with no protocol to synchronize the grandmaster clocks of
// different domains initially — grandmaster nodes free-run and the
// grandmasters never agree.
func BaselineNoStartupSync(ctx context.Context, cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()
	baseCfg := core.NewConfig(cfg.Seed)
	baseCfg.BaselineClientsOnly = true
	return compare(ctx, "no-startup-sync baseline (clients only)", cfg.Duration,
		comparisonPoint("ours", core.NewConfig(cfg.Seed), nil),
		comparisonPoint("variant", baseCfg, nil))
}

// AblationSingleDomainVsFTA contrasts plain single-domain gPTP against the
// paper's M = 4 multi-domain FTA when one grandmaster turns Byzantine:
// without the FTA the falsified timestamps propagate unmasked.
func AblationSingleDomainVsFTA(ctx context.Context, cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()
	attackAt := cfg.Duration / 3
	singleCfg := core.NewConfig(cfg.Seed)
	singleCfg.DomainCount = 1
	singleCfg.F = 0
	return compare(ctx, "single-domain gPTP vs multi-domain FTA under one Byzantine GM", cfg.Duration,
		comparisonPoint("ours", core.NewConfig(cfg.Seed), compromiseAt(attackAt, "c41")),
		comparisonPoint("variant", singleCfg, compromiseAt(attackAt, "c11")))
}

// AblationFlagPolicy contrasts the FTSHMEM validity-flag policies under a
// single Byzantine grandmaster: FlagMonitor (the paper's configuration,
// masking via the FTA alone) against FlagExclude (outliers removed before
// averaging).
func AblationFlagPolicy(ctx context.Context, cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()
	drive := compromiseAt(cfg.Duration/3, "c41")
	monitorCfg := core.NewConfig(cfg.Seed)
	monitorCfg.FlagPolicy = fta.FlagMonitor
	excludeCfg := core.NewConfig(cfg.Seed)
	excludeCfg.FlagPolicy = fta.FlagExclude
	return compare(ctx, "flag policy: monitor (ours) vs exclude", cfg.Duration,
		comparisonPoint("ours", monitorCfg, drive),
		comparisonPoint("variant", excludeCfg, drive))
}
