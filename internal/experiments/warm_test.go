package experiments

import (
	"context"
	"crypto/sha256"
	"testing"
	"time"

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

// TestForkEquivalenceBounds: a warm-started bounds run (prefix to half the
// window, snapshot, fork, run the rest) must be bit-identical to the cold
// unsplit run — the study is fault-free, so splitting the timeline at the
// boundary changes nothing.
func TestForkEquivalenceBounds(t *testing.T) {
	for _, seed := range warmSeeds() {
		cfg := BoundsConfig{Seed: seed, Duration: 3 * time.Minute}
		cold, err := Bounds(cfg)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		warmCfg := cfg
		warmCfg.WarmStart = true
		warmCfg.Metrics = reg
		warm, err := Bounds(warmCfg)
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
			t.Fatalf("seed %d: forks served = %v, want 1 (the run fell back cold)", seed, forks)
		}
		hc, hw := sha256.New(), sha256.New()
		hashRows(hc, cold.Rows())
		hashRows(hw, warm.Rows())
		if digest(hc) != digest(hw) {
			t.Fatalf("seed %d: warm bounds diverged from cold\ncold: %s\nwarm: %s",
				seed, cold.Summary(), warm.Summary())
		}
	}
}

// TestForkEquivalenceFaultInjection: a warm-started fig4 campaign (fork at
// the injector's start minus the guard) must be bit-identical to the cold
// run. Both injection campaigns anchor their first firings to absolute
// instants, so the fork injects at exactly the cold run's instants.
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
		cold, err := FaultInjection(cfg)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		reg := obs.NewRegistry()
		warmCfg := cfg
		warmCfg.WarmStart = true
		warmCfg.Metrics = reg
		warm, err := FaultInjection(warmCfg)
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
			t.Fatalf("seed %d: forks served = %v, want 1 (the run fell back cold)", seed, forks)
		}
		if dc, dw := fig4Digest(cold), fig4Digest(warm); dc != dw {
			t.Fatalf("seed %d: warm fault injection diverged from cold\ncold: %s\nwarm: %s",
				seed, cold.Summary(), warm.Summary())
		}
	}
}

func fig4Digest(res *FaultInjectionResult) string {
	h := sha256.New()
	hashSamples(h, res.Samples)
	hashRows(h, res.Rows())
	return digest(h)
}

// TestForkEquivalenceNetworkChaos: every warm-forked chaos sweep point must
// be bit-identical to the cold run of the same plan.
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
		warmCfg := cfg
		warmCfg.WarmStart = true
		warmCfg.Metrics = reg
		warm, err := NetworkChaos(context.Background(), warmCfg)
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if forks := metricValue(reg, "runner_forks_served"); forks != 2 {
			t.Fatalf("seed %d: forks served = %v, want 2 (points fell back cold)", seed, forks)
		}
		// The cold reference: one fresh system per plan.
		coldRes, err := NetworkChaos(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		hc, hw := sha256.New(), sha256.New()
		hashRows(hc, coldRes.Rows())
		hashRows(hw, warm.Rows())
		if digest(hc) != digest(hw) {
			t.Fatalf("seed %d: warm chaos sweep diverged from cold\ncold: %s\nwarm: %s",
				seed, coldRes.Summary(), warm.Summary())
		}
	}
}

// TestWarmFallbackOnPrefixMismatch: a sweep whose swept parameter shapes the
// warm-up must detect the prefix-hash mismatch and demote those points to
// cold runs, with the fallback counted.
func TestWarmFallbackOnPrefixMismatch(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := IntervalSweepConfig{
		Seed:      1,
		Intervals: []time.Duration{125 * time.Millisecond, 250 * time.Millisecond},
		Duration:  3 * time.Minute,
		Parallel:  1,
		WarmStart: true,
		Metrics:   reg,
	}
	warm, err := IntervalSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forks := metricValue(reg, "runner_forks_served"); forks != 1 {
		t.Fatalf("forks served = %v, want 1 (only the prefix-matching point forks)", forks)
	}
	if cold := metricValue(reg, "runner_cold_fallbacks"); cold != 1 {
		t.Fatalf("cold fallbacks = %v, want 1 (the mismatching point)", cold)
	}
	coldCfg := cfg
	coldCfg.WarmStart = false
	coldCfg.Metrics = nil
	coldRes, err := IntervalSweep(context.Background(), coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	hc, hw := sha256.New(), sha256.New()
	hashRows(hc, coldRes.Rows())
	hashRows(hw, warm.Rows())
	if digest(hc) != digest(hw) {
		t.Fatalf("warm interval sweep diverged from cold\ncold: %s\nwarm: %s",
			coldRes.Summary(), warm.Summary())
	}
}
