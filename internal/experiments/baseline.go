package experiments

import (
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

// comparisonObs merges the metrics of the two systems a comparison ran,
// distinguishing the series with a "variant" label.
func comparisonObs(ours, variant *core.System) []obs.Metric {
	ms := obs.AddLabel(ours.Metrics().Snapshot(), "variant", "ours")
	return append(ms, obs.AddLabel(variant.Metrics().Snapshot(), "variant", "variant")...)
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

func runSystem(cfg core.Config, d time.Duration, drive func(*core.System)) (*core.System, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	if drive != nil {
		drive(sys)
	}
	if err := sys.RunFor(d); err != nil {
		return nil, err
	}
	return sys, nil
}

// BaselineNoStartupSync reproduces the paper's criticism of the
// Kyriakakis-style end system (§I): multi-domain aggregation restricted to
// PTP clients, with no protocol to synchronize the grandmaster clocks of
// different domains initially — grandmaster nodes free-run and the
// grandmasters never agree.
func BaselineNoStartupSync(cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()

	ours, err := runSystem(core.NewConfig(cfg.Seed), cfg.Duration, nil)
	if err != nil {
		return nil, err
	}
	baseCfg := core.NewConfig(cfg.Seed)
	baseCfg.BaselineClientsOnly = true
	base, err := runSystem(baseCfg, cfg.Duration, nil)
	if err != nil {
		return nil, err
	}

	bound, _ := ours.PrecisionBound()
	gamma := ours.Collector().Gamma()
	limit := float64(bound + gamma)
	settle := (60 * time.Second).Seconds()

	res := &ComparisonResult{Name: "no-startup-sync baseline (clients only)", BoundNS: limit}
	res.OursStats, res.OursViolations, res.OursSamples = steadyStats(ours.Collector().Samples(), settle, limit)
	res.VariantStats, res.VariantViolations, res.VariantSamples = steadyStats(base.Collector().Samples(), settle, limit)
	res.Obs = comparisonObs(ours, base)
	return res, nil
}

// AblationSingleDomainVsFTA contrasts plain single-domain gPTP against the
// paper's M = 4 multi-domain FTA when one grandmaster turns Byzantine:
// without the FTA the falsified timestamps propagate unmasked.
func AblationSingleDomainVsFTA(cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()
	attackAt := cfg.Duration / 3

	ours, err := runSystem(core.NewConfig(cfg.Seed), cfg.Duration, compromiseAt(attackAt, "c41"))
	if err != nil {
		return nil, err
	}
	singleCfg := core.NewConfig(cfg.Seed)
	singleCfg.DomainCount = 1
	singleCfg.F = 0
	single, err := runSystem(singleCfg, cfg.Duration, compromiseAt(attackAt, "c11"))
	if err != nil {
		return nil, err
	}

	bound, _ := ours.PrecisionBound()
	gamma := ours.Collector().Gamma()
	limit := float64(bound + gamma)
	settle := (60 * time.Second).Seconds()

	res := &ComparisonResult{Name: "single-domain gPTP vs multi-domain FTA under one Byzantine GM", BoundNS: limit}
	res.OursStats, res.OursViolations, res.OursSamples = steadyStats(ours.Collector().Samples(), settle, limit)
	res.VariantStats, res.VariantViolations, res.VariantSamples = steadyStats(single.Collector().Samples(), settle, limit)
	res.Obs = comparisonObs(ours, single)
	return res, nil
}

// AblationFlagPolicy contrasts the FTSHMEM validity-flag policies under a
// single Byzantine grandmaster: FlagMonitor (the paper's configuration,
// masking via the FTA alone) against FlagExclude (outliers removed before
// averaging).
func AblationFlagPolicy(cfg BaselineConfig) (*ComparisonResult, error) {
	cfg = cfg.withDefaults()
	attackAt := cfg.Duration / 3

	drive := compromiseAt(attackAt, "c41")
	monitorCfg := core.NewConfig(cfg.Seed)
	monitorCfg.FlagPolicy = fta.FlagMonitor
	monitor, err := runSystem(monitorCfg, cfg.Duration, drive)
	if err != nil {
		return nil, err
	}
	excludeCfg := core.NewConfig(cfg.Seed)
	excludeCfg.FlagPolicy = fta.FlagExclude
	exclude, err := runSystem(excludeCfg, cfg.Duration, drive)
	if err != nil {
		return nil, err
	}

	bound, _ := monitor.PrecisionBound()
	gamma := monitor.Collector().Gamma()
	limit := float64(bound + gamma)
	settle := (60 * time.Second).Seconds()

	res := &ComparisonResult{Name: "flag policy: monitor (ours) vs exclude", BoundNS: limit}
	res.OursStats, res.OursViolations, res.OursSamples = steadyStats(monitor.Collector().Samples(), settle, limit)
	res.VariantStats, res.VariantViolations, res.VariantSamples = steadyStats(exclude.Collector().Samples(), settle, limit)
	res.Obs = comparisonObs(monitor, exclude)
	return res, nil
}
