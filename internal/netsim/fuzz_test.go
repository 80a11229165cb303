package netsim

import (
	"testing"
	"time"

	"gptpfta/internal/sim"
)

// fuzzDelayAttack is an adversarial DelayAttack implementation for the
// fuzzer: it targets PTP-priority frames in direction 0 and may return a
// negative value, which the link must clamp (the DelayAttack contract says
// attackers only ever add latency).
type fuzzDelayAttack struct{ delayNS float64 }

func (a fuzzDelayAttack) ExtraDelayNS(f *Frame, dir int) float64 {
	if dir != 0 || f == nil || f.Priority != PriorityPTP {
		return 0
	}
	return a.delayNS
}

// FuzzLinkDelay pins the link's delay contract under arbitrary jitter,
// chaos delay overrides (including negative asymmetric shifts), WAN drift
// offsets (SetWanDelay) and installed delay attacks: the jittered base never
// drops below half the propagation, and the three axes add to it, with a
// negative WAN extra and a negative attack clamped to zero. A twin link on
// the same random stream, with no axis set, gives each draw's base.
func FuzzLinkDelay(f *testing.F) {
	f.Add(int64(1_000), 0.0, int64(0), int64(0), int64(1), int64(0), int64(0), int64(0))
	f.Add(int64(50_000), 25.0, int64(0), int64(0), int64(7), int64(24_000), int64(0), int64(0))
	f.Add(int64(1_000_000), 400.0, int64(30_000), int64(-20_000), int64(42), int64(-5_000), int64(12_000), int64(-8_000))
	f.Add(int64(500), 1000.0, int64(-100), int64(100), int64(3), int64(1), int64(-50), int64(200))
	f.Add(int64(50_000_000), 0.0, int64(0), int64(0), int64(9), int64(0), int64(400_000), int64(-300_000))

	f.Fuzz(func(t *testing.T, propNS int64, jitterNS float64, extraNS, asymNS, seed, attackNS, wanExtraNS, wanAsymNS int64) {
		// Keep the config inside the domain the simulator uses: positive
		// nominal propagation, non-negative jitter, overrides within ±1 ms.
		if propNS < 1 {
			propNS = 1 - propNS
		}
		propNS = propNS%1_000_000_000 + 1
		if jitterNS < 0 {
			jitterNS = -jitterNS
		}
		if jitterNS > 1e6 || jitterNS != jitterNS {
			jitterNS = 1e6
		}
		extraNS %= 1_000_000
		asymNS %= 1_000_000
		wanExtraNS %= 1_000_000
		wanAsymNS %= 1_000_000
		attackNS %= 1_000_000

		link := func() *Link {
			l, err := Connect(sim.NewScheduler(), sim.NewStreams(seed).Stream("fuzz/link"), LinkConfig{
				Propagation: time.Duration(propNS),
				JitterNS:    jitterNS,
			}, &Port{Name: "a"}, &Port{Name: "b"})
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		plain, l := link(), link()
		l.SetDelayOverride(time.Duration(extraNS), time.Duration(asymNS))
		l.SetWanDelay(time.Duration(wanExtraNS), time.Duration(wanAsymNS))
		l.SetDelayAttack(fuzzDelayAttack{delayNS: float64(attackNS)})

		frames := []*Frame{nil, {Priority: PriorityPTP}, {Priority: PriorityBestEffort}}
		for i := 0; i < 64; i++ {
			for dir := 0; dir < 2; dir++ {
				fr := frames[i%len(frames)]
				base, got := plain.delay(dir, fr), l.delay(dir, fr)
				if base < time.Duration(propNS/2) {
					t.Fatalf("base delay %v below half the propagation %dns (jitter %.1fns)", base, propNS, jitterNS)
				}
				want := base + time.Duration(extraNS+max(wanExtraNS, 0))
				if dir == 0 {
					want += time.Duration(asymNS + wanAsymNS)
					if fr != nil && fr.Priority == PriorityPTP {
						want += time.Duration(max(attackNS, 0))
					}
				}
				// Both sums round a float once; allow that nanosecond.
				if d := got - want; d < -1 || d > 1 {
					t.Fatalf("delay %v, want base %v plus the axes = %v (dir %d, prop %dns, jitter %.1fns, extra %dns, asym %dns, attack %dns, wanExtra %dns, wanAsym %dns)",
						got, base, want, dir, propNS, jitterNS, extraNS, asymNS, attackNS, wanExtraNS, wanAsymNS)
				}
			}
		}
	})
}
