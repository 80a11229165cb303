package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/measure"
)

// The experiment tests run scaled-down horizons; the full-length runs are
// exercised by the benchmark harness and command-line tools.

func TestCyberResilienceIdenticalKernels(t *testing.T) {
	res, err := CyberResilience(context.Background(), CyberResilienceConfig{Seed: 42, Duration: 12 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ExploitResults) != 2 {
		t.Fatalf("exploit attempts = %d, want 2", len(res.ExploitResults))
	}
	for _, r := range res.ExploitResults {
		if !r.Success {
			t.Fatalf("exploit on identical kernels must succeed: %s", r)
		}
	}
	// Before the second compromise the FTA masks the attack.
	if res.ViolationsBeforeSecond > res.SamplesBeforeSecond/20 {
		t.Fatalf("first attack not masked: %d/%d violations before second attack",
			res.ViolationsBeforeSecond, res.SamplesBeforeSecond)
	}
	// After the second compromise the bound collapses (Fig. 3a).
	if !res.BoundViolatedAfterSecondAttack() {
		t.Fatalf("two compromised GMs did not break the bound: %d/%d violations, max %.0fns, bound %v",
			res.ViolationsAfterSecond, res.SamplesAfterSecond, res.MaxAfterSecondNS, res.Bound)
	}
	if res.MaxAfterSecondNS < float64(res.Bound) {
		t.Fatalf("max after second attack %.0f below bound %v", res.MaxAfterSecondNS, res.Bound)
	}
	if !strings.Contains(res.Summary(), "violated") {
		t.Fatalf("summary: %s", res.Summary())
	}
}

func TestCyberResilienceDiverseKernels(t *testing.T) {
	res, err := CyberResilience(context.Background(), CyberResilienceConfig{Seed: 42, Duration: 12 * time.Minute, DiverseKernels: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var successes int
	for _, r := range res.ExploitResults {
		if r.Success {
			successes++
			if r.Target != "c41" {
				t.Fatalf("wrong target compromised: %s", r.Target)
			}
		}
	}
	if successes != 1 {
		t.Fatalf("successes = %d, want exactly 1 (only c41 vulnerable)", successes)
	}
	// Fig. 3b: the bound holds throughout.
	if res.BoundViolatedAfterSecondAttack() {
		t.Fatalf("diverse kernels still broke the bound: %d/%d violations after second attempt",
			res.ViolationsAfterSecond, res.SamplesAfterSecond)
	}
	if res.ViolationsBeforeSecond > res.SamplesBeforeSecond/20 {
		t.Fatalf("first attack not masked: %d/%d", res.ViolationsBeforeSecond, res.SamplesBeforeSecond)
	}
	if !strings.Contains(res.Summary(), "diverse") {
		t.Fatalf("summary: %s", res.Summary())
	}
}

func TestFaultInjectionShort(t *testing.T) {
	res, err := FaultInjection(context.Background(), FaultInjectionConfig{
		Seed:                7,
		Duration:            25 * time.Minute,
		GMPeriod:            5 * time.Minute,
		RedundantMinPerHour: 6,
		RedundantMaxPerHour: 12,
		Downtime:            30 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Injection.GMFailures < 3 {
		t.Fatalf("GM failures = %d", res.Injection.GMFailures)
	}
	if res.Takeovers == 0 {
		t.Fatal("no takeovers despite GM failures")
	}
	if res.TxTimestampTimeouts == 0 {
		t.Fatal("no tx-timestamp timeouts at the calibrated rate")
	}
	// Fig. 4a's shape: precision bounded despite the faults.
	if res.Violations > res.Stats.Count/50 {
		t.Fatalf("%d/%d samples beyond the bound: %s", res.Violations, res.Stats.Count, res.Stats)
	}
	if res.Stats.MeanNS > 2000 {
		t.Fatalf("mean precision %.0f ns, want sub-µs-ish", res.Stats.MeanNS)
	}
	if len(res.Windows) < 10 {
		t.Fatalf("windows = %d", len(res.Windows))
	}

	// Fig. 5: the event window around the spike contains fault markers.
	w := res.Fig5Window(10 * time.Minute)
	if len(w.Samples) == 0 {
		t.Fatal("empty Fig. 5 window")
	}
	if w.SpikeNS != res.Stats.MaxNS {
		t.Fatal("spike mismatch")
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestBounds(t *testing.T) {
	res, err := Bounds(context.Background(), BoundsConfig{Seed: 3, Duration: 4 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.DMin <= 0 || res.DMax <= res.DMin {
		t.Fatalf("latency extrema: %v / %v", res.DMin, res.DMax)
	}
	if res.ReadingError != res.DMax-res.DMin {
		t.Fatal("E != d_max - d_min")
	}
	if res.U != 2 {
		t.Fatalf("u(4,1) = %v, want 2", res.U)
	}
	if res.Bound != 2*(res.ReadingError+res.DriftOffset) {
		t.Fatal("Π != 2(E+Γ)")
	}
	if res.Gamma <= 0 || res.Gamma >= res.ReadingError {
		t.Fatalf("γ = %v vs E = %v", res.Gamma, res.ReadingError)
	}
	if len(res.Table()) != 8 {
		t.Fatalf("table rows = %d", len(res.Table()))
	}
}

func TestBaselineNoStartupSync(t *testing.T) {
	res, err := BaselineNoStartupSync(context.Background(), BaselineConfig{Seed: 11, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Ours: bounded. Baseline: grandmaster nodes free-run, so the measured
	// precision is orders of magnitude worse.
	if res.OursViolations > res.OursSamples/20 {
		t.Fatalf("our architecture violated its own bound: %d/%d", res.OursViolations, res.OursSamples)
	}
	if res.VariantStats.MeanNS < 10*res.OursStats.MeanNS {
		t.Fatalf("baseline unexpectedly competitive: ours %.0f ns vs baseline %.0f ns",
			res.OursStats.MeanNS, res.VariantStats.MeanNS)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestAblationSingleDomainVsFTA(t *testing.T) {
	res, err := AblationSingleDomainVsFTA(context.Background(), BaselineConfig{Seed: 12, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The Byzantine GM pulls the single-domain system ~24 µs off; the FTA
	// masks it.
	if res.OursViolations > res.OursSamples/20 {
		t.Fatalf("FTA failed to mask one Byzantine GM: %d/%d", res.OursViolations, res.OursSamples)
	}
	if res.VariantViolations < res.VariantSamples/4 {
		t.Fatalf("single-domain run unexpectedly survived the Byzantine GM: %d/%d violations",
			res.VariantViolations, res.VariantSamples)
	}
}

func TestAblationFlagPolicy(t *testing.T) {
	res, err := AblationFlagPolicy(context.Background(), BaselineConfig{Seed: 13, Duration: 8 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Both policies must mask a single Byzantine GM.
	if res.OursViolations > res.OursSamples/20 {
		t.Fatalf("monitor policy violated: %d/%d", res.OursViolations, res.OursSamples)
	}
	if res.VariantViolations > res.VariantSamples/20 {
		t.Fatalf("exclude policy violated: %d/%d", res.VariantViolations, res.VariantSamples)
	}
}

func TestRenderSeries(t *testing.T) {
	windows := []measure.Window{
		{StartSec: 0, MinNS: 100, AvgNS: 300, MaxNS: 900, Count: 120},
		{StartSec: 120, MinNS: 50, AvgNS: 400, MaxNS: 9000, Count: 120},
	}
	out := RenderSeries(windows, 11420*time.Nanosecond, 856*time.Nanosecond, 12)
	if !strings.Contains(out, "*") || !strings.Contains(out, "legend") {
		t.Fatalf("render output:\n%s", out)
	}
	if RenderSeries(nil, 0, 0, 10) != "(no data)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestRenderHistogram(t *testing.T) {
	h := measure.ComputeHistogram([]measure.Sample{
		{PiStarNS: 50}, {PiStarNS: 150}, {PiStarNS: 151}, {PiStarNS: 5000},
	}, 100, 1000)
	out := RenderHistogram(h, 20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "beyond range") {
		t.Fatalf("histogram output:\n%s", out)
	}
}

func TestBMCAReconvergence(t *testing.T) {
	res, err := BMCAReconvergence(BMCAReconvergenceConfig{Seed: 5})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.InitialElection <= 0 {
		t.Fatal("no initial election time")
	}
	// The gap must be at least the receipt timeout (3 announce intervals)
	// — the window the paper's static-configuration + FTA design avoids.
	if res.ReelectionGap < 3*time.Second {
		t.Fatalf("re-election gap %v below the receipt timeout", res.ReelectionGap)
	}
	if res.ReelectionGap > 30*time.Second {
		t.Fatalf("re-election gap %v implausibly long", res.ReelectionGap)
	}
	if res.Successor != "sys0" {
		t.Fatalf("successor %s, want sys0", res.Successor)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestBMCAReconvergenceFasterAnnounce(t *testing.T) {
	slow, err := BMCAReconvergence(BMCAReconvergenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := BMCAReconvergence(BMCAReconvergenceConfig{Seed: 5, AnnounceInterval: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if fast.ReelectionGap >= slow.ReelectionGap {
		t.Fatalf("faster announces should shrink the gap: %v vs %v", fast.ReelectionGap, slow.ReelectionGap)
	}
}
