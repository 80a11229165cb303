package experiments

import (
	"context"
	"crypto/sha256"
	"math"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/obs"
)

// goldenWanSitesDigest pins the wide-area campaign's full table — site
// census, quorum predictions, measured degradation ladders, re-stabilization
// times and verdicts — for a compact sweep over every axis on the 4-site
// fabric. Any change to the WAN delay model, the coordinator's FTA/holdover
// ladder, the chaos site actions or the verdict computation shows up here.
const goldenWanSitesDigest = "8794eae4654fd3daf14f84e9987abf1959073a800446cce0391c01655be5ec3e"

// goldenWanSitesConfig is the digest's sweep: one fabric size, the failure
// axis crossing the tolerable budget, both asymmetry settings.
func goldenWanSitesConfig() WanSitesConfig {
	return WanSitesConfig{
		Seed:       1,
		SiteCounts: []int{4},
	}
}

func TestGoldenDigestWanSites(t *testing.T) {
	res, err := WanSites(context.Background(), goldenWanSitesConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	if got := digest(h); got != goldenWanSitesDigest {
		t.Fatalf("wansites digest changed: got %s want %s\nsummary: %s\n%s",
			got, goldenWanSitesDigest, res.Summary(), RenderTable(res.Rows(), ""))
	}
	if n := res.Anomalies(); n != 0 {
		t.Fatalf("wansites campaign produced %d anomaly verdicts:\n%s",
			n, RenderTable(res.Rows(), ""))
	}
}

// TestWanSitesBoundary checks the acceptance criterion directly: at the
// default parameters the measured site-failure boundary coincides with
// min(f, ⌊(N−1)/2⌋) at every sweep point — the floor arm binds at N = 4,
// the f arm at N = 5 — with zero anomalies, and every degraded point
// re-stabilizes within the resync window after the heal.
func TestWanSitesBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("full default campaign")
	}
	cfg := WanSitesConfig{Seed: 1}
	res, err := WanSites(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := cfg.withDefaults().ResyncWindow.Seconds()
	for _, p := range res.Points {
		if p.Verdict == WanVerdictAnomaly {
			t.Errorf("%s: anomaly verdict", p.Label)
		}
		wantSurvive := p.Failed <= p.Tolerable
		if p.PredictedSurvive != wantSurvive || p.MeasuredSurvive != wantSurvive {
			t.Errorf("%s: predicted %v measured %v, want %v (tolerable %d)",
				p.Label, p.PredictedSurvive, p.MeasuredSurvive, wantSurvive, p.Tolerable)
		}
		if !wantSurvive {
			if math.IsInf(p.ResyncSec, 1) || p.ResyncSec > window {
				t.Errorf("%s: re-stabilized %.1fs after heal, want ≤ %.0fs", p.Label, p.ResyncSec, window)
			}
			if p.HoldoverEntered == 0 || p.HoldoverExited != p.HoldoverEntered {
				t.Errorf("%s: holdover entered %d / exited %d, want a matched non-zero pair",
					p.Label, p.HoldoverEntered, p.HoldoverExited)
			}
		}
	}
}

// TestForkEquivalenceWanSites: the sweep groups points by fabric size and
// forks each group of two or more from its own prefix snapshot; the table
// must be bit-identical to every point run cold as its own campaign.
func TestForkEquivalenceWanSites(t *testing.T) {
	if testing.Short() {
		t.Skip("forked-vs-cold double campaign")
	}
	cfg := WanSitesConfig{
		Seed:        3,
		SiteCounts:  []int{4, 5},
		FailedSites: []int{2},
		Asyms:       []time.Duration{0, 10 * time.Microsecond},
		Parallel:    1,
	}
	reg := obs.NewRegistry()
	forkCfg := cfg
	forkCfg.Metrics = reg
	forked, err := WanSites(context.Background(), forkCfg)
	if err != nil {
		t.Fatal(err)
	}
	if forks := metricValue(reg, "runner_forks_served"); forks != 4 {
		t.Fatalf("forks served = %v, want 4 (two per fabric-size group)", forks)
	}
	coldReg := obs.NewRegistry()
	var results []Result
	for _, sites := range cfg.SiteCounts {
		for _, asym := range cfg.Asyms {
			one := cfg
			one.SiteCounts, one.Asyms, one.Metrics = []int{sites}, []time.Duration{asym}, coldReg
			res, err := WanSites(context.Background(), one)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	if cold := coldRows(t, coldReg, results); rowsDigest(cold) != rowsDigest(forked.Rows()) {
		t.Fatalf("forked wansites sweep diverged from cold\ncold:\n%s\nforked:\n%s",
			RenderTable(cold, ""), RenderTable(forked.Rows(), ""))
	}
}

func TestWanSitesConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  WanSitesConfig
		want string
	}{
		{"single site", WanSitesConfig{SiteCounts: []int{1}}, "site_counts[0]"},
		{"negative failed", WanSitesConfig{FailedSites: []int{-1}}, "failed_sites[0]"},
		{"negative asym", WanSitesConfig{Asyms: []time.Duration{-time.Microsecond}}, "asyms[0]"},
		{"negative f", WanSitesConfig{F: -1}, "f must not be negative"},
		{"negative duration", WanSitesConfig{Duration: -time.Second}, "duration"},
		{"negative resync", WanSitesConfig{ResyncWindow: -time.Second}, "resync_window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if err := (WanSitesConfig{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults apply): %v", err)
	}
}
