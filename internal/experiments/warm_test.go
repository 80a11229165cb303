package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/obs"
)

// warmSeeds derives the fork-equivalence seeds: the suite must hold for any
// seed, so each experiment is checked across several.
func warmSeeds() []int64 { return []int64{1, 1001, 2001, 3001, 4001} }

// metricValue reads one counter out of a registry snapshot.
func metricValue(reg *obs.Registry, name string) float64 {
	var v float64
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// stubCache is a snapshot cache that never hits: every Acquire computes the
// prefix afresh. Attached to a campaign it makes runPoints offer the shared
// prefix even to a lone point, without sharing a snapshot between runs.
type stubCache struct{}

func (stubCache) Acquire(ctx context.Context, _ string, compute func(context.Context) (any, error)) (any, bool, func(), error) {
	snap, err := compute(ctx)
	return snap, false, func() {}, err
}

// rowsDigest hashes a result table the way the golden digests do.
func rowsDigest(rows [][]string) string {
	h := sha256.New()
	hashRows(h, rows)
	return digest(h)
}

// coldRows joins the tables of one-point campaigns under the first one's
// header, after checking through reg that none of them ran a prefix: with
// one point and no snapshot cache, runPoints runs the point cold, so the
// joined table is the cold reference a forked sweep must reproduce.
func coldRows(t *testing.T, reg *obs.Registry, results []Result) [][]string {
	t.Helper()
	if n := metricValue(reg, "runner_prefix_runs"); n != 0 {
		t.Fatalf("one-point campaigns ran %v prefixes, want 0", n)
	}
	rows := [][]string{results[0].Rows()[0]}
	for _, r := range results {
		rows = append(rows, r.Rows()[1:]...)
	}
	return rows
}

// coldChaos runs every plan of a chaos sweep as its own one-point campaign
// (the plan written to a file and run through PlanPath) and returns the
// joined cold table.
func coldChaos(t *testing.T, cfg NetworkChaosConfig) [][]string {
	t.Helper()
	plans, err := cfg.Plans()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var results []Result
	for _, p := range plans {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		one := cfg
		one.BurstBadLoss, one.PartitionDurations, one.PlanPath = nil, nil, path
		one.Metrics = reg
		res, err := NetworkChaos(context.Background(), one)
		if err != nil {
			t.Fatalf("cold %s: %v", p.Name, err)
		}
		results = append(results, res)
	}
	return coldRows(t, reg, results)
}

// TestForkRule pins when runPoints forks, through the runner counters: a
// sweep whose points share one prefix forks them all; a sweep whose swept
// parameter shapes the prefix, and a lone point, run cold; a snapshot cache
// makes even a lone point fork.
func TestForkRule(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	if _, err := NetworkChaos(ctx, NetworkChaosConfig{
		Seed:               1,
		Duration:           2*time.Minute + 30*time.Second,
		ChaosStart:         90 * time.Second,
		BurstBadLoss:       []float64{0.5},
		PartitionDurations: []time.Duration{10 * time.Second},
		Parallel:           1,
		Metrics:            reg,
	}); err != nil {
		t.Fatal(err)
	}
	if forks := metricValue(reg, "runner_forks_served"); forks != 2 {
		t.Errorf("2-point netchaos sweep: forks served = %v, want 2", forks)
	}

	reg = obs.NewRegistry()
	if _, err := IntervalSweep(ctx, IntervalSweepConfig{
		Seed:      1,
		Intervals: []time.Duration{125 * time.Millisecond, 250 * time.Millisecond},
		Duration:  2 * time.Minute,
		Parallel:  1,
		Metrics:   reg,
	}); err != nil {
		t.Fatal(err)
	}
	if prefixes := metricValue(reg, "runner_prefix_runs"); prefixes != 0 {
		t.Errorf("interval sweep: prefix runs = %v, want 0", prefixes)
	}

	for _, tc := range []struct {
		name            string
		cache           bool
		prefixes, forks float64
	}{
		{"bounds without a cache", false, 0, 0},
		{"bounds with a cache", true, 1, 1},
	} {
		reg := obs.NewRegistry()
		cfg := BoundsConfig{Seed: 1, Duration: 2 * time.Minute, Metrics: reg}
		if tc.cache {
			cfg.Snapshots = stubCache{}
		}
		if _, err := Bounds(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if p, f := metricValue(reg, "runner_prefix_runs"), metricValue(reg, "runner_forks_served"); p != tc.prefixes || f != tc.forks {
			t.Errorf("%s: prefix runs %v, forks served %v, want %v and %v", tc.name, p, f, tc.prefixes, tc.forks)
		}
	}
}

// TestForkEquivalenceBounds: a bounds run forked through a snapshot cache
// (prefix to half the window, snapshot, fork, run the rest) must be
// bit-identical to the cold run — the study is fault-free, so splitting the
// timeline at the boundary changes nothing.
func TestForkEquivalenceBounds(t *testing.T) {
	for _, seed := range warmSeeds() {
		cfg := BoundsConfig{Seed: seed, Duration: 3 * time.Minute}
		cold, err := Bounds(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		forkCfg := cfg
		forkCfg.Metrics = reg
		forkCfg.Snapshots = stubCache{}
		forked, err := Bounds(context.Background(), forkCfg)
		if err != nil {
			t.Fatalf("seed %d forked: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
			t.Fatalf("seed %d: forks served = %v, want 1 (the run fell back cold)", seed, forks)
		}
		if rowsDigest(cold.Rows()) != rowsDigest(forked.Rows()) {
			t.Fatalf("seed %d: forked bounds diverged from cold\ncold: %s\nforked: %s",
				seed, cold.Summary(), forked.Summary())
		}
	}
}

// TestForkEquivalenceFaultInjection: a fig4 campaign forked through a
// snapshot cache (at the injector's start minus the guard) must be
// bit-identical to the cold run. Both injection campaigns anchor their first
// firings to absolute instants, so the fork injects at exactly the cold
// run's instants.
func TestForkEquivalenceFaultInjection(t *testing.T) {
	for _, seed := range warmSeeds() {
		cfg := FaultInjectionConfig{
			Seed:                seed,
			Duration:            8 * time.Minute,
			GMPeriod:            2 * time.Minute,
			RedundantMinPerHour: 6,
			RedundantMaxPerHour: 12,
			Downtime:            30 * time.Second,
		}
		cold, err := FaultInjection(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		forkCfg := cfg
		forkCfg.Metrics = reg
		forkCfg.Snapshots = stubCache{}
		forked, err := FaultInjection(context.Background(), forkCfg)
		if err != nil {
			t.Fatalf("seed %d forked: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
			t.Fatalf("seed %d: forks served = %v, want 1 (the run fell back cold)", seed, forks)
		}
		if dc, df := fig4Digest(cold), fig4Digest(forked); dc != df {
			t.Fatalf("seed %d: forked fault injection diverged from cold\ncold: %s\nforked: %s",
				seed, cold.Summary(), forked.Summary())
		}
	}
}

func fig4Digest(res *FaultInjectionResult) string {
	h := sha256.New()
	hashSamples(h, res.Samples)
	hashRows(h, res.Rows())
	return digest(h)
}

// TestForkEquivalenceNetworkChaos: every point of a chaos sweep forks from
// the shared prefix and must be bit-identical to the same plan run cold as
// its own one-point campaign.
func TestForkEquivalenceNetworkChaos(t *testing.T) {
	for _, seed := range warmSeeds() {
		cfg := NetworkChaosConfig{
			Seed:               seed,
			Duration:           4*time.Minute + 30*time.Second,
			BurstBadLoss:       []float64{0.5},
			PartitionDurations: []time.Duration{10 * time.Second},
			Parallel:           1,
		}
		reg := obs.NewRegistry()
		forkCfg := cfg
		forkCfg.Metrics = reg
		forked, err := NetworkChaos(context.Background(), forkCfg)
		if err != nil {
			t.Fatalf("seed %d forked: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 2 {
			t.Fatalf("seed %d: forks served = %v, want 2 (points fell back cold)", seed, forks)
		}
		if cold := coldChaos(t, cfg); rowsDigest(cold) != rowsDigest(forked.Rows()) {
			t.Fatalf("seed %d: forked chaos sweep diverged from cold\ncold: %v\nforked: %v",
				seed, cold, forked.Rows())
		}
	}
}

// TestForkEquivalenceLanes: a chaos sweep forked on several lanes at once —
// each lane from its own replica of the prefix — must still be
// bit-identical to the cold points, with every point served by a fork.
func TestForkEquivalenceLanes(t *testing.T) {
	cfg := NetworkChaosConfig{
		Seed:               7,
		Duration:           2*time.Minute + 30*time.Second,
		ChaosStart:         90 * time.Second,
		BurstBadLoss:       []float64{0.25, 0.9},
		PartitionDurations: []time.Duration{time.Second, 10 * time.Second},
		Parallel:           1,
	}
	cold := coldChaos(t, cfg)
	want := rowsDigest(cold)
	for _, parallel := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		forkCfg := cfg
		forkCfg.Parallel = parallel
		forkCfg.Metrics = reg
		forked, err := NetworkChaos(context.Background(), forkCfg)
		if err != nil {
			t.Fatalf("parallel %d forked: %v", parallel, err)
		}
		if forks, points := metricValue(reg, "runner_forks_served"), len(forked.Points); forks != float64(points) {
			t.Fatalf("parallel %d: forks served = %v, want %d (points fell back cold)", parallel, forks, points)
		}
		if got := rowsDigest(forked.Rows()); got != want {
			t.Fatalf("parallel %d: forked lanes diverged from cold\ncold: %v\nforked: %v",
				parallel, cold, forked.Rows())
		}
	}
}

// TestForkEquivalenceAttacks: the points of an identical-kernel attack
// sweep share one prefix up to AttackStart minus the guard, so every point
// forks from it; the forked table must be bit-identical to the points run
// cold, one campaign each. An attacker attached before the boundary would
// leak the first point's attack into every fork.
func TestForkEquivalenceAttacks(t *testing.T) {
	for _, seed := range warmSeeds()[:2] {
		cfg := AttacksConfig{
			Seed:            seed,
			Duration:        3 * time.Minute,
			AttackStart:     time.Minute,
			ByzantineCounts: []int{0, 1, 2},
			Delays:          []time.Duration{0, 24 * time.Microsecond},
			Diversity:       []string{DiversityIdentical},
			Parallel:        1,
		}
		reg := obs.NewRegistry()
		forkCfg := cfg
		forkCfg.Metrics = reg
		forked, err := Attacks(context.Background(), forkCfg)
		if err != nil {
			t.Fatalf("seed %d forked: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 6 {
			t.Fatalf("seed %d: forks served = %v, want 6 (points fell back cold)", seed, forks)
		}
		coldReg := obs.NewRegistry()
		var results []Result
		for _, byz := range cfg.ByzantineCounts {
			for _, d := range cfg.Delays {
				one := cfg
				one.ByzantineCounts, one.Delays, one.Metrics = []int{byz}, []time.Duration{d}, coldReg
				res, err := Attacks(context.Background(), one)
				if err != nil {
					t.Fatalf("seed %d cold byz=%d delay=%v: %v", seed, byz, d, err)
				}
				results = append(results, res)
			}
		}
		if cold := coldRows(t, coldReg, results); rowsDigest(cold) != rowsDigest(forked.Rows()) {
			t.Fatalf("seed %d: forked attack sweep diverged from cold\ncold:\n%s\nforked:\n%s",
				seed, RenderTable(cold, ""), RenderTable(forked.Rows(), ""))
		}
	}
}

// TestWarmFallbackOnPrefixMismatch: with a snapshot cache attached, a sweep
// whose swept parameter shapes the warm-up must detect the prefix-hash
// mismatch and demote those points to cold runs, with the fallback counted.
func TestWarmFallbackOnPrefixMismatch(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := IntervalSweepConfig{
		Seed:      1,
		Intervals: []time.Duration{125 * time.Millisecond, 250 * time.Millisecond},
		Duration:  3 * time.Minute,
		Parallel:  1,
	}
	coldRes, err := IntervalSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	forkCfg := cfg
	forkCfg.Metrics = reg
	forkCfg.Snapshots = stubCache{}
	forked, err := IntervalSweep(context.Background(), forkCfg)
	if err != nil {
		t.Fatal(err)
	}
	if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
		t.Fatalf("forks served = %v, want 1 (only the prefix-matching point forks)", forks)
	}
	if cold := metricValue(reg, "runner_cold_fallbacks"); cold != 1 {
		t.Fatalf("cold fallbacks = %v, want 1 (the mismatching point)", cold)
	}
	if rowsDigest(coldRes.Rows()) != rowsDigest(forked.Rows()) {
		t.Fatalf("forked interval sweep diverged from cold\ncold: %s\nforked: %s",
			coldRes.Summary(), forked.Summary())
	}
}

// cancelAfter wraps p's run so that it cancels the campaign's context once
// the point has finished.
func cancelAfter[P any](p point[P], cancel context.CancelFunc) point[P] {
	run := p.run
	p.run = func(sys *core.System, remaining time.Duration) (P, []obs.Metric, error) {
		defer cancel()
		return run(sys, remaining)
	}
	return p
}

// unbuildable marks a point that must never be built: its config has too
// few nodes for core.NewSystem, so building it fails with a config error
// instead of the cancellation the tests expect.
func unbuildable[P any](p point[P]) point[P] {
	p.cfg.Nodes = 1
	return p
}

// TestCancelStopsLaterPoints cancels a two-point study inside its first
// point's run: the second point must not be built, and the study must
// return context.Canceled.
func TestCancelStopsLaterPoints(t *testing.T) {
	t.Run("comparison", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := compare(ctx, "cancel", 2*time.Minute,
			cancelAfter(comparisonPoint("ours", core.NewConfig(1), nil), cancel),
			unbuildable(comparisonPoint("variant", core.NewConfig(1), nil)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("recovery", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := RecoveryConfig{Seed: 1, Duration: 3 * time.Minute, Parallel: 1}.withDefaults()
		_, err := recoveryCompare(ctx, cfg,
			cancelAfter(recoveryPoint(cfg, "stack/linux", cfg.LinuxDowntime), cancel),
			unbuildable(recoveryPoint(cfg, "stack/unikernel", cfg.UnikernelDowntime)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	// Every study of the paper's system honours the caller's context: a
	// cancelled one runs nothing, at the studies' default horizons.
	t.Run("entry points", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for name, run := range map[string]func() error{
			"bounds":         func() error { _, err := Bounds(ctx, BoundsConfig{}); return err },
			"resilience":     func() error { _, err := CyberResilience(ctx, CyberResilienceConfig{}); return err },
			"faultinjection": func() error { _, err := FaultInjection(ctx, FaultInjectionConfig{}); return err },
			"baseline":       func() error { _, err := BaselineNoStartupSync(ctx, BaselineConfig{}); return err },
			"single-domain":  func() error { _, err := AblationSingleDomainVsFTA(ctx, BaselineConfig{}); return err },
			"flag-policy":    func() error { _, err := AblationFlagPolicy(ctx, BaselineConfig{}); return err },
			"voting":         func() error { _, err := VotingFailover(ctx, VotingConfig{}); return err },
			"recovery":       func() error { _, err := RecoveryComparison(ctx, RecoveryConfig{}); return err },
			"multiseed":      func() error { _, err := MultiSeedValidation(ctx, MultiSeedConfig{}); return err },
			"bmca":           func() error { _, err := BMCAReconvergence(ctx, BMCAReconvergenceConfig{}); return err },
			"dynamic":        func() error { _, err := DynamicMeshStudy(ctx, DynamicMeshConfig{}); return err },
			"onestep":        func() error { _, err := OneStepStudy(ctx, OneStepStudyConfig{}); return err },
			"tas":            func() error { _, err := TASStudy(ctx, TASStudyConfig{}); return err },
		} {
			if err := run(); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
		}
	})
	// The two-mode micro-topology studies check the context before each
	// mode: one cancelled while the first mode runs builds no second mode.
	t.Run("second mode", func(t *testing.T) {
		for name, run := range map[string]func(context.Context) error{
			"onestep": func(ctx context.Context) error { _, err := OneStepStudy(ctx, OneStepStudyConfig{Seed: 1}); return err },
			"tas": func(ctx context.Context) error {
				_, err := TASStudy(ctx, TASStudyConfig{Seed: 1, Duration: time.Second})
				return err
			},
		} {
			ctx := &cancelAfterChecks{Context: context.Background(), live: 1}
			if err := run(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
			if ctx.checks != 2 {
				t.Errorf("%s: %d context checks, want 2 (one per mode built)", name, ctx.checks)
			}
		}
	})
}

// cancelAfterChecks is a context that reads live for its first live Err
// calls and cancelled after them: a cancel that lands between two checks,
// while the study runs what the last live check let it build.
type cancelAfterChecks struct {
	context.Context
	live, checks int
}

func (c *cancelAfterChecks) Err() error {
	c.checks++
	if c.checks > c.live {
		return context.Canceled
	}
	return nil
}
