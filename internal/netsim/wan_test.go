package netsim

import (
	"testing"
	"time"

	"gptpfta/internal/sim"
)

// jitterlessLink builds a deterministic link (no jitter, no RNG) so delay()
// is an exact additive function of the configured axes.
func jitterlessLink(t *testing.T, prop time.Duration) *Link {
	t.Helper()
	sched := sim.NewScheduler()
	a := &Port{Name: "a"}
	b := &Port{Name: "b"}
	l, err := Connect(sched, nil, LinkConfig{Propagation: prop}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLinkDelayAxesCompose pins the combined additive contract of the three
// dynamic delay axes: chaos override (SetDelayOverride), WAN drift
// (SetWanDelay) and on-path attack (SetDelayAttack) stack by pure addition
// on top of the propagation base, with the attack clamped non-negative.
func TestLinkDelayAxesCompose(t *testing.T) {
	const prop = 100 * time.Microsecond
	l := jitterlessLink(t, prop)
	l.SetDelayOverride(10*time.Microsecond, -4*time.Microsecond)
	l.SetWanDelay(7*time.Microsecond, 3*time.Microsecond)
	l.SetDelayAttack(fuzzDelayAttack{delayNS: 5_000}) // PTP frames, dir 0 only

	ptp := &Frame{Priority: PriorityPTP}
	be := &Frame{Priority: PriorityBestEffort}

	// dir 0 carries both asymmetries plus the attack on PTP frames.
	want0 := prop + 10*time.Microsecond - 4*time.Microsecond + 7*time.Microsecond + 3*time.Microsecond
	if got := l.delay(0, ptp); got != want0+5*time.Microsecond {
		t.Fatalf("delay(0, ptp) = %v, want %v", got, want0+5*time.Microsecond)
	}
	if got := l.delay(0, be); got != want0 {
		t.Fatalf("delay(0, be) = %v, want %v", got, want0)
	}
	// dir 1 carries neither asymmetry nor the attack.
	want1 := prop + 10*time.Microsecond + 7*time.Microsecond
	if got := l.delay(1, ptp); got != want1 {
		t.Fatalf("delay(1, ptp) = %v, want %v", got, want1)
	}

	// DirectionalDelay is the attack- and jitter-free view of the same sums.
	if got := l.DirectionalDelay(0); got != want0 {
		t.Fatalf("DirectionalDelay(0) = %v, want %v", got, want0)
	}
	if got := l.DirectionalDelay(1); got != want1 {
		t.Fatalf("DirectionalDelay(1) = %v, want %v", got, want1)
	}

	// A negative attack return is clamped: identical to no attack at all.
	l.SetDelayAttack(fuzzDelayAttack{delayNS: -50_000})
	if got := l.delay(0, ptp); got != want0 {
		t.Fatalf("negative attack not clamped: delay(0, ptp) = %v, want %v", got, want0)
	}
}

// TestLinkSnapshotRoundTripsWanAxis pins that warm-start forks restore the
// WAN drift axis bit-identically alongside the chaos override.
func TestLinkSnapshotRoundTripsWanAxis(t *testing.T) {
	l := jitterlessLink(t, 20*time.Microsecond)
	l.SetDelayOverride(1*time.Microsecond, -2*time.Microsecond)
	l.SetWanDelay(3*time.Microsecond, -4*time.Microsecond)
	snap := l.Snapshot()

	l.SetDelayOverride(0, 0)
	l.SetWanDelay(0, 0)
	l.Restore(snap)

	if e, a := l.WanDelay(); e != 3*time.Microsecond || a != -4*time.Microsecond {
		t.Fatalf("restored wan axis = (%v, %v), want (3µs, -4µs)", e, a)
	}
	if l.extraDelay != 1*time.Microsecond || l.asymDelay != -2*time.Microsecond {
		t.Fatalf("restored override = (%v, %v), want (1µs, -2µs)", l.extraDelay, l.asymDelay)
	}
}
