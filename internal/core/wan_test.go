package core

import (
	"math"
	"testing"
	"time"
)

func wanTestConfig(seed int64, sites int) Config {
	cfg := ScaleConfig(seed, sites, 4, 2)
	cfg.WanSync.Enabled = true
	cfg.WanSync.Drift.Enabled = true
	return cfg
}

// TestWanPathAsym pins the sign and magnitude of the two-way-exchange
// asymmetry error the coordinator's readings inherit from the chain.
func TestWanPathAsym(t *testing.T) {
	sys, err := NewSystem(wanTestConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	link := sys.Link(sys.WanLinkName(0)) // site 0 <-> site 1, dir 0 = 0→1
	if link == nil {
		t.Fatalf("chain link %q not found", sys.WanLinkName(0))
	}
	link.SetWanDelay(0, 10*time.Microsecond) // 0→1 slower by 10µs

	// Observer 0, peer 1: the path from the peer back (1→0) is now the
	// fast one, so d(peer→obs) − d(obs→peer) = −10µs and the error −5µs.
	if got := sys.PathAsymNS(0, 1); got != -5_000 {
		t.Fatalf("PathAsymNS(0,1) = %v, want -5000", got)
	}
	if got := sys.PathAsymNS(1, 0); got != 5_000 {
		t.Fatalf("PathAsymNS(1,0) = %v, want 5000", got)
	}
	// Two-hop path 0↔2 includes the undisturbed second segment.
	if got := sys.PathAsymNS(0, 2); got != -5_000 {
		t.Fatalf("PathAsymNS(0,2) = %v, want -5000", got)
	}

	// Severing the first segment breaks 0↔1 and 0↔2 but not 1↔2.
	link.SetDown(true)
	if sys.PathUp(0, 1) || sys.PathUp(0, 2) {
		t.Fatal("PathUp true across a severed chain segment")
	}
	if !sys.PathUp(1, 2) {
		t.Fatal("PathUp(1,2) false with only segment 0-1 severed")
	}
}

// TestWanTierConverges boots a 3-site fabric with the WAN tier on and
// checks the site-level adjusted clocks pull onto a common timescale.
func TestWanTierConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-site convergence run")
	}
	sys, err := NewSystem(wanTestConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Stop()

	samples := sys.Wan().Samples()
	if len(samples) < 50 {
		t.Fatalf("got %d WAN samples, want ≥ 50", len(samples))
	}
	last := samples[len(samples)-1]
	var lo, hi float64
	first := true
	for i, adj := range last.AdjNS {
		if !last.Alive[i] {
			t.Fatalf("site %d dead in a fault-free run", i)
		}
		if last.Holdover[i] || !last.Quorum[i] {
			t.Fatalf("site %d degraded (holdover=%v quorum=%v) in a fault-free run",
				i, last.Holdover[i], last.Quorum[i])
		}
		if math.IsNaN(adj) {
			t.Fatalf("site %d adjusted time is NaN", i)
		}
		if first {
			lo, hi, first = adj, adj, false
		}
		lo, hi = math.Min(lo, adj), math.Max(hi, adj)
	}
	// Site-level agreement: WAN noise is 2µs 1-sigma and the drift walk
	// adds up to ~5µs of asymmetry error, so tens of µs is the honest
	// scale; the raw (uncorrected) site clocks disagree by milliseconds.
	if hi-lo > 50_000 {
		t.Fatalf("WAN site spread after 30s = %.0fns, want ≤ 50µs", hi-lo)
	}
}
