package wan

import (
	"math"
	"testing"
	"time"

	"gptpfta/internal/sim"
)

// fakeFabric models N sites as linear clocks raw(t) = t·rate + offset,
// with per-site liveness and per-pair path state under test control.
type fakeFabric struct {
	sched   *sim.Scheduler
	rates   []float64
	offsets []float64
	alive   []bool
	cut     map[[2]int]bool
	asym    map[[2]int]float64
}

func newFakeFabric(sched *sim.Scheduler, n int) *fakeFabric {
	f := &fakeFabric{
		sched: sched,
		rates: make([]float64, n), offsets: make([]float64, n),
		alive: make([]bool, n),
		cut:   map[[2]int]bool{}, asym: map[[2]int]float64{},
	}
	for i := range f.rates {
		f.rates[i] = 1.0
		f.alive[i] = true
	}
	return f
}

func (f *fakeFabric) NumSites() int { return len(f.rates) }

func (f *fakeFabric) SiteTime(site int) (float64, bool) {
	if !f.alive[site] {
		return 0, false
	}
	return float64(f.sched.Now())*f.rates[site] + f.offsets[site], true
}

func pairKey(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

func (f *fakeFabric) PathUp(i, j int) bool { return !f.cut[pairKey(i, j)] }

func (f *fakeFabric) PathAsymNS(i, j int) float64 {
	if v, ok := f.asym[[2]int{i, j}]; ok {
		return v
	}
	return -f.asym[[2]int{j, i}]
}

func testConfig() Config {
	return Config{
		Enabled:  true,
		F:        1,
		Interval: 500 * time.Millisecond,
		NoiseNS:  10, // near-noiseless for tight convergence checks
	}
}

func runCoordinator(t *testing.T, cfg Config, n int, seed int64) (*Coordinator, *fakeFabric, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	fab := newFakeFabric(sched, n)
	c := NewCoordinator(cfg, fab, sim.NewStreams(seed), nil)
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	return c, fab, sched
}

func lastSpread(t *testing.T, c *Coordinator) float64 {
	t.Helper()
	s := c.Samples()
	if len(s) == 0 {
		t.Fatal("no samples recorded")
	}
	last := s[len(s)-1]
	lo, hi, ok := aliveSpread(last.AdjNS, last.Alive)
	if !ok {
		t.Fatal("no alive site in last sample")
	}
	return hi - lo
}

// TestTolerable pins the coordinator's site-failure budget to
// min(f, ⌊(N−1)/2⌋) across site counts and trim parameters.
func TestTolerable(t *testing.T) {
	cases := []struct{ n, f, want int }{
		{4, 1, 1}, {5, 1, 1}, {5, 2, 2}, {4, 2, 1}, {3, 1, 1},
		{2, 1, 0}, {7, 3, 3}, {6, 3, 2}, {4, 0, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		cfg := testConfig()
		cfg.F = c.f
		co := NewCoordinator(cfg, newFakeFabric(sim.NewScheduler(), c.n), sim.NewStreams(1), nil)
		if got := co.Tolerable(); got != c.want {
			t.Errorf("Coordinator over %d sites, f=%d: Tolerable() = %d, want %d", c.n, c.f, got, c.want)
		}
	}
}

// TestCoordinatorConverges checks that sites starting with offsets far
// apart pull together onto a common timescale within a few ticks (the
// initial disagreement exceeds the servo's first-step threshold, so the
// very first locked sample steps the virtual clocks together).
func TestCoordinatorConverges(t *testing.T) {
	c, fab, sched := runCoordinator(t, testConfig(), 4, 1)
	fab.offsets = []float64{0, 400_000, -250_000, 120_000}
	if err := sched.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := lastSpread(t, c); got > 5_000 {
		t.Fatalf("site spread after 20s = %.0fns, want ≤ 5µs", got)
	}
	for i, s := range c.Samples()[len(c.Samples())-1].Holdover {
		if s {
			t.Fatalf("site %d in holdover with all sites healthy", i)
		}
	}
}

// TestCoordinatorMasksAsymmetricPeer checks the FTA trims a peer whose WAN
// path carries a large asymmetry: the honest sites must stay converged.
func TestCoordinatorMasksAsymmetricPeer(t *testing.T) {
	c, fab, sched := runCoordinator(t, testConfig(), 4, 2)
	// Every observer sees site 3 shifted by 200µs (and site 3 sees all its
	// peers shifted the other way) — a classic asymmetric-delay adversary.
	for i := 0; i < 3; i++ {
		fab.asym[[2]int{i, 3}] = 200_000
	}
	if err := sched.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	last := c.Samples()[len(c.Samples())-1]
	honest := []float64{last.AdjNS[0], last.AdjNS[1], last.AdjNS[2]}
	lo, hi := honest[0], honest[0]
	for _, v := range honest[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo > 5_000 {
		t.Fatalf("honest-site spread under asym adversary = %.0fns, want ≤ 5µs", hi-lo)
	}
}

// TestCoordinatorHoldoverLadder drives the full degradation ladder: quorum
// loss beyond the budget → freeze after HoldoverWindow; heal → thaw after
// the hysteresis, with the tier converged again afterwards.
func TestCoordinatorHoldoverLadder(t *testing.T) {
	cfg := testConfig()
	cfg.HoldoverWindow = 2 * time.Second
	c, fab, sched := runCoordinator(t, cfg, 4, 3)
	if err := sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Two failed sites exceed Tolerable(4, 1) = 1: quorum is lost.
	fab.alive[2], fab.alive[3] = false, false
	if err := sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	last := c.Samples()[len(c.Samples())-1]
	for i := 0; i < 2; i++ {
		if last.Quorum[i] {
			t.Fatalf("site %d still reports quorum with 2/4 sites failed", i)
		}
		if !last.Holdover[i] {
			t.Fatalf("site %d not in holdover %v after quorum loss", i, cfg.HoldoverWindow)
		}
	}

	// Heal; survivors must thaw and the ensemble must re-converge.
	fab.alive[2], fab.alive[3] = true, true
	if err := sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	last = c.Samples()[len(c.Samples())-1]
	for i := range last.Holdover {
		if last.Holdover[i] {
			t.Fatalf("site %d still frozen 30s after heal", i)
		}
	}
	if got := lastSpread(t, c); got > 10_000 {
		t.Fatalf("site spread 30s after heal = %.0fns, want ≤ 10µs", got)
	}
}

// TestCoordinatorRidesThroughTolerableFailure: one failed site of four is
// within the budget — no holdover, survivors stay converged.
func TestCoordinatorRidesThroughTolerableFailure(t *testing.T) {
	c, fab, sched := runCoordinator(t, testConfig(), 4, 4)
	if err := sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab.alive[3] = false
	if err := sched.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	last := c.Samples()[len(c.Samples())-1]
	for i := 0; i < 3; i++ {
		if !last.Quorum[i] {
			t.Fatalf("site %d lost quorum on a tolerable single-site failure", i)
		}
		if last.Holdover[i] {
			t.Fatalf("site %d entered holdover on a tolerable single-site failure", i)
		}
	}
	if got := lastSpread(t, c); got > 5_000 {
		t.Fatalf("survivor spread = %.0fns, want ≤ 5µs", got)
	}
}

// TestCoordinatorSnapshotRoundTrip pins that a snapshot/restore cycle
// rewinds the coordinator bit-identically (servo state, corrections,
// cached readings, recorded samples).
func TestCoordinatorSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig()
	sched := sim.NewScheduler()
	fab := newFakeFabric(sched, 4)
	fab.offsets = []float64{0, 50_000, -30_000, 10_000}
	streams := sim.NewStreams(7)
	c := NewCoordinator(cfg, fab, streams, nil)
	if err := c.Start(sched); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	wantSamples := len(c.Samples())
	wantCorr := append([]float64(nil), c.corrNS...)

	if err := sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Restore(snap)
	if got := len(c.Samples()); got != wantSamples {
		t.Fatalf("restored sample count = %d, want %d", got, wantSamples)
	}
	for i := range wantCorr {
		if c.corrNS[i] != wantCorr[i] {
			t.Fatalf("restored corrNS[%d] = %v, want %v", i, c.corrNS[i], wantCorr[i])
		}
	}
}

// driftRecorder captures SetWanDelay calls.
type driftRecorder struct {
	extra, asym time.Duration
	calls       int
}

func (r *driftRecorder) SetWanDelay(e, a time.Duration) { r.extra, r.asym, r.calls = e, a, r.calls+1 }

// TestDriftBoundedAndDeterministic: the walk stays inside its reflective
// bounds, honours the non-negative extra contract, and replays identically
// for the same seed.
func TestDriftBoundedAndDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		sched := sim.NewScheduler()
		rec := &driftRecorder{}
		d := NewDrift(DriftConfig{Enabled: true, Interval: time.Second, StepNS: 5_000,
			MaxExtraNS: 10_000, MaxAsymNS: 8_000},
			[]NamedLink{{Name: "sw1-sw5", Link: rec}}, sim.NewStreams(seed))
		if err := d.Start(sched); err != nil {
			t.Fatal(err)
		}
		var trace []time.Duration
		for i := 0; i < 200; i++ {
			if err := sched.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if rec.extra < 0 || rec.extra > 10_000 {
				t.Fatalf("drift extra %v outside [0, 10µs]", rec.extra)
			}
			if rec.asym < -8_000 || rec.asym > 8_000 {
				t.Fatalf("drift asym %v outside ±8µs", rec.asym)
			}
			trace = append(trace, rec.extra, rec.asym)
		}
		return trace
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drift walk diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}
