package netsim

import (
	"testing"
	"time"

	"gptpfta/internal/sim"
)

// collectLatencies runs n sends spaced 1 µs apart and returns the delivery
// instants observed at b.
func sendSchedule(t *testing.T, fx *fixture, a *NIC, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		fx.sched.After(time.Duration(i)*time.Microsecond, func() {
			_, _ = a.Send(&Frame{Src: "nic/a", Dst: "nic/b"})
		})
	}
}

func TestLinkDownDropsInFlightAndFutureFrames(t *testing.T) {
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	l := mustConnect(t, fx, LinkConfig{Propagation: 10 * time.Microsecond}, a.Port(), b.Port())
	received := 0
	b.SetHandler(func(*Frame, float64) { received++ })

	// Frame 1 sent at t=0, in flight when the link goes down at t=5µs: it
	// must die even though the link is back up at its delivery instant.
	if _, err := a.Send(&Frame{Dst: "nic/b"}); err != nil {
		t.Fatal(err)
	}
	fx.sched.After(5*time.Microsecond, func() { l.SetDown(true) })
	// Frame 2 sent during the outage: dropped at Send.
	fx.sched.After(6*time.Microsecond, func() { _, _ = a.Send(&Frame{Dst: "nic/b"}) })
	fx.sched.After(7*time.Microsecond, func() { l.SetDown(false) })
	// Frame 3 sent after restoration: delivered.
	fx.sched.After(8*time.Microsecond, func() { _, _ = a.Send(&Frame{Dst: "nic/b"}) })
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Fatalf("received %d frames, want only the post-restore one", received)
	}
	if l.FaultDropped() != 2 {
		t.Fatalf("fault-dropped = %d, want 2", l.FaultDropped())
	}
	if l.Sent() != 3 {
		t.Fatalf("sent = %d, want 3", l.Sent())
	}
}

func TestLinkDownSymmetricBothDirections(t *testing.T) {
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	l := mustConnect(t, fx, LinkConfig{Propagation: time.Microsecond}, a.Port(), b.Port())
	got := 0
	a.SetHandler(func(*Frame, float64) { got++ })
	b.SetHandler(func(*Frame, float64) { got++ })
	l.SetDown(true)
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	_, _ = b.Send(&Frame{Dst: "nic/a"})
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("down link delivered %d frames", got)
	}
}

// deliveryTimes runs a jittered 200-frame schedule and returns each frame's
// delivery instant — the bit-level fingerprint of the link's RNG draws.
func deliveryTimes(t *testing.T, mutate func(l *Link, fx *fixture)) []sim.Time {
	t.Helper()
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	cfg := LinkConfig{
		Propagation: 500 * time.Nanosecond,
		JitterNS:    50,
		LossRNG:     fx.streams.Stream("loss/a-b"),
	}
	l := mustConnect(t, fx, cfg, a.Port(), b.Port())
	if mutate != nil {
		mutate(l, fx)
	}
	var times []sim.Time
	b.SetHandler(func(*Frame, float64) { times = append(times, fx.sched.Now()) })
	sendSchedule(t, fx, a, 200)
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	return times
}

// TestZeroRateLossModelIsStreamInvisible pins the determinism contract: a
// dedicated loss stream means enabling a zero-rate loss model (or leaving
// LossProb at zero) yields bit-identical delivery times, because the main
// jitter stream never sees a different draw sequence.
func TestZeroRateLossModelIsStreamInvisible(t *testing.T) {
	base := deliveryTimes(t, nil)
	withModel := deliveryTimes(t, func(l *Link, _ *fixture) {
		l.SetLossModel(&GilbertElliott{}) // all-zero rates: drops nothing
	})
	if len(base) != 200 || len(withModel) != 200 {
		t.Fatalf("deliveries %d / %d, want 200 each", len(base), len(withModel))
	}
	for i := range base {
		if base[i] != withModel[i] {
			t.Fatalf("delivery %d diverged: %v vs %v (zero-rate model perturbed the stream)",
				i, base[i], withModel[i])
		}
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	cfg := LinkConfig{Propagation: 500 * time.Nanosecond, LossRNG: fx.streams.Stream("loss")}
	l := mustConnect(t, fx, cfg, a.Port(), b.Port())
	// Heavy burst regime: long bad sojourns losing 90% of frames.
	l.SetLossModel(&GilbertElliott{BadLoss: 0.9, GoodToBad: 0.05, BadToGood: 0.1})
	got := 0
	b.SetHandler(func(*Frame, float64) { got++ })
	sendSchedule(t, fx, a, 2000)
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	// Stationary bad-state share 0.05/(0.05+0.1) = 1/3, so expected loss is
	// about 30%; accept a broad band to stay seed-robust.
	if lost := 2000 - got; lost < 300 || lost > 1200 {
		t.Fatalf("lost %d of 2000, outside burst-loss band", lost)
	}
	if l.Lost() != uint64(2000-got) {
		t.Fatalf("Lost() = %d, delivered %d", l.Lost(), got)
	}
}

func TestDelayOverrideAsymmetry(t *testing.T) {
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	l := mustConnect(t, fx, LinkConfig{Propagation: time.Microsecond}, a.Port(), b.Port())
	l.SetDelayOverride(2*time.Microsecond, 3*time.Microsecond)

	var abAt, baAt sim.Time
	b.SetHandler(func(*Frame, float64) { abAt = fx.sched.Now() })
	a.SetHandler(func(*Frame, float64) { baAt = fx.sched.Now() })
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	_, _ = b.Send(&Frame{Dst: "nic/a"})
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	// a->b: 1µs prop + 2µs extra + 3µs asym; b->a: 1µs + 2µs.
	if abAt != sim.Time(6*time.Microsecond) {
		t.Fatalf("a->b delivered at %v, want 6µs", abAt)
	}
	if baAt != sim.Time(3*time.Microsecond) {
		t.Fatalf("b->a delivered at %v, want 3µs", baAt)
	}
	l.SetDelayOverride(0, 0)
	abAt = 0
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := abAt - sim.Time(6*time.Microsecond); got != sim.Time(time.Microsecond) {
		t.Fatalf("post-clear a->b latency %v, want 1µs", got)
	}
}

func TestBridgeFailRestore(t *testing.T) {
	fx := newFixture()
	br := fx.bridge("sw1", 2)
	a, b := fx.nic("a"), fx.nic("b")
	lc := LinkConfig{Propagation: 200 * time.Nanosecond}
	mustConnect(t, fx, lc, a.Port(), br.Port(0))
	mustConnect(t, fx, lc, b.Port(), br.Port(1))
	br.AddRoute("nic/b", 1)
	got := 0
	b.SetHandler(func(*Frame, float64) { got++ })

	br.Fail()
	if !br.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("failed bridge forwarded a frame")
	}
	if br.FaultDropped() != 1 {
		t.Fatalf("fault-dropped = %d, want 1", br.FaultDropped())
	}

	br.Recover()
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("restored bridge delivered %d, want 1", got)
	}
}

// TestBridgeFailDropsResidenceFrames covers the egress-side drop point: a
// frame already inside the residence pipeline when the bridge fails must
// die at its departure instant.
func TestBridgeFailDropsResidenceFrames(t *testing.T) {
	fx := newFixture()
	br := fx.bridge("sw1", 2)
	a, b := fx.nic("a"), fx.nic("b")
	lc := LinkConfig{Propagation: 200 * time.Nanosecond}
	mustConnect(t, fx, lc, a.Port(), br.Port(0))
	mustConnect(t, fx, lc, b.Port(), br.Port(1))
	br.AddRoute("nic/b", 1)
	got := 0
	b.SetHandler(func(*Frame, float64) { got++ })
	_, _ = a.Send(&Frame{Dst: "nic/b"})
	// Residence is ~1.5µs; fail right after ingress (200ns link + ε).
	fx.sched.After(300*time.Nanosecond, func() { br.Fail() })
	if err := fx.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("frame escaped a bridge that failed mid-residence")
	}
	if br.FaultDropped() != 1 {
		t.Fatalf("fault-dropped = %d, want 1", br.FaultDropped())
	}
}

// TestLinkWithoutLossStreamNeverDrops: loss needs a dedicated loss stream.
// Connect rejects a loss probability without one, and a link without one
// never drops and never draws for loss — even under a heavy loss model, its
// jitter sequence is the one it has with no model at all.
func TestLinkWithoutLossStreamNeverDrops(t *testing.T) {
	fx := newFixture()
	a, b := fx.nic("a"), fx.nic("b")
	if _, err := Connect(fx.sched, fx.streams.Stream("l"), LinkConfig{LossProb: 0.1}, a.Port(), b.Port()); err == nil {
		t.Fatal("loss probability without a loss stream accepted")
	}
	run := func(model LossModel) []sim.Time {
		fx := newFixture()
		a, b := fx.nic("a"), fx.nic("b")
		l := mustConnect(t, fx, LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 50}, a.Port(), b.Port())
		l.SetLossModel(model)
		var times []sim.Time
		b.SetHandler(func(*Frame, float64) { times = append(times, fx.sched.Now()) })
		sendSchedule(t, fx, a, 100)
		if err := fx.sched.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	base := run(nil)
	lossy := run(&GilbertElliott{GoodLoss: 0.5, BadLoss: 1, GoodToBad: 0.5, BadToGood: 0.1})
	if len(base) != 100 || len(lossy) != 100 {
		t.Fatalf("deliveries %d / %d, want 100 each", len(base), len(lossy))
	}
	for i := range base {
		if base[i] != lossy[i] {
			t.Fatalf("delivery %d diverged: %v vs %v (the loss model drew from the main stream)", i, base[i], lossy[i])
		}
	}
}
