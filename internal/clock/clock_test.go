package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gptpfta/internal/sim"
)

func newTestStreams() *sim.Streams { return sim.NewStreams(1) }

func TestOscillatorPerfectClock(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{}, nil, s.Now())
	if got := o.ElapsedAt(sim.Time(time.Second)); got != 1e9 {
		t.Fatalf("perfect oscillator elapsed = %v, want 1e9", got)
	}
}

func TestOscillatorStaticDrift(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{StaticPPB: 5000}, nil, s.Now()) // 5 ppm fast
	got := o.ElapsedAt(sim.Time(time.Second))
	want := 1e9 * (1 + 5000e-9)
	if math.Abs(got-want) > 1 {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestOscillatorMonotone(t *testing.T) {
	streams := newTestStreams()
	o := NewOscillator(OscillatorConfig{StaticPPB: -4000, WanderPPBPerSqrtSec: 10},
		streams.Stream("osc"), 0)
	prev := o.ElapsedAt(0)
	for i := 1; i <= 5000; i++ {
		now := sim.Time(i) * sim.Time(7*time.Millisecond)
		v := o.ElapsedAt(now)
		if v < prev {
			t.Fatalf("oscillator went backwards at step %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestOscillatorRereadSameInstant(t *testing.T) {
	streams := newTestStreams()
	o := NewOscillator(OscillatorConfig{WanderPPBPerSqrtSec: 50}, streams.Stream("osc"), 0)
	at := sim.Time(3 * time.Second)
	a := o.ElapsedAt(at)
	b := o.ElapsedAt(at)
	if a != b {
		t.Fatalf("re-read at same instant changed: %v != %v", a, b)
	}
}

func TestOscillatorWanderBounded(t *testing.T) {
	// Over 1000 one-second segments a 1 ppb/√s random walk should stay in
	// the tens of ppb, far below the static term — a sanity bound that the
	// wander magnitude is calibrated as documented.
	streams := newTestStreams()
	o := NewOscillator(OscillatorConfig{WanderPPBPerSqrtSec: 1}, streams.Stream("w"), 0)
	o.ElapsedAt(sim.Time(1000 * time.Second))
	if w := math.Abs(o.FreqPPB()); w > 200 {
		t.Fatalf("wander after 1000s = %v ppb, suspiciously large", w)
	}
}

// TestOscillatorWanderStepScale pins the per-segment wander step at
// W·√(segment seconds), correctly rounded: √0.013 is 0.11401754250991379,
// one ulp below the 0.1140175425099138 of a fixed 32-step Newton iteration.
func TestOscillatorWanderStepScale(t *testing.T) {
	for _, c := range []struct {
		seg  time.Duration
		want float64
	}{
		{time.Second, 1},
		{4 * time.Second, 2},
		{13 * time.Millisecond, 0.11401754250991379},
	} {
		o := NewOscillator(OscillatorConfig{WanderPPBPerSqrtSec: 1, Segment: c.seg}, nil, 0)
		if o.stepPPB != c.want {
			t.Errorf("segment %v: wander step %v, want %v", c.seg, o.stepPPB, c.want)
		}
	}
}

// TestOscillatorRateWithinBound property: for drift rates within ±r, elapsed
// local time over any horizon stays within (1±(r+slack))·horizon.
func TestOscillatorRateWithinBound(t *testing.T) {
	streams := newTestStreams()
	f := func(ppbRaw int16, horizonMS uint16) bool {
		ppb := float64(ppbRaw)    // ±32767 ppb ≈ ±32.8 ppm
		h := int64(horizonMS) + 1 // ≥ 1 ms
		o := NewOscillator(OscillatorConfig{StaticPPB: ppb, WanderPPBPerSqrtSec: 1},
			streams.Stream("p"), 0)
		now := sim.Time(h * int64(time.Millisecond))
		got := o.ElapsedAt(now)
		trueNS := float64(now)
		bound := (math.Abs(ppb) + 100) * 1e-9 * trueNS // +100 ppb wander slack
		return math.Abs(got-trueNS) <= bound+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPHCAdjFreqContinuity(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{StaticPPB: 2000}, nil, s.Now())
	p := NewPHC(s, o, nil, PHCConfig{})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	before := p.Now()
	p.AdjFreq(-2000)
	after := p.Now()
	if math.Abs(after-before) > 1e-6 {
		t.Fatalf("AdjFreq caused a jump: %v -> %v", before, after)
	}
	// With the servo cancelling the static drift the PHC should now track
	// true time rate within a few ppb.
	if rate := p.RatePPBVsTrue(); math.Abs(rate) > 0.1 {
		t.Fatalf("residual rate = %v ppb, want ~0", rate)
	}
}

func TestPHCStepExact(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{}, nil, s.Now())
	p := NewPHC(s, o, nil, PHCConfig{InitialOffsetNS: 100})
	p.Step(-250.5)
	if got := p.Now(); math.Abs(got-(-150.5)) > 1e-9 {
		t.Fatalf("after step Now() = %v, want -150.5", got)
	}
	p.Set(42)
	if got := p.Now(); math.Abs(got-42) > 1e-9 {
		t.Fatalf("after set Now() = %v, want 42", got)
	}
}

func TestPHCAdjFreqClamped(t *testing.T) {
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{}, nil, s.Now())
	p := NewPHC(s, o, nil, PHCConfig{MaxAdjPPB: 1000})
	p.AdjFreq(5000)
	if got := p.FreqPPB(); got != 1000 {
		t.Fatalf("FreqPPB = %v, want clamp at 1000", got)
	}
	p.AdjFreq(-5000)
	if got := p.FreqPPB(); got != -1000 {
		t.Fatalf("FreqPPB = %v, want clamp at -1000", got)
	}
}

func TestPHCDisciplineTracksTarget(t *testing.T) {
	// A PHC with +5 ppm oscillator, corrected by -5 ppm servo adjustment,
	// must stay within ns of an ideal clock over 100 s.
	s := sim.NewScheduler()
	o := NewOscillator(OscillatorConfig{StaticPPB: 5000}, nil, s.Now())
	p := NewPHC(s, o, nil, PHCConfig{})
	p.AdjFreq(-5000 / (1 + 5000e-9)) // exact inverse of (1+e)
	if err := s.RunUntil(sim.Time(100 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if diff := math.Abs(p.Now() - 100e9); diff > 5 {
		t.Fatalf("disciplined PHC off by %v ns after 100 s", diff)
	}
}

func TestPHCTimestampJitter(t *testing.T) {
	s := sim.NewScheduler()
	streams := newTestStreams()
	o := NewOscillator(OscillatorConfig{}, nil, s.Now())
	p := NewPHC(s, o, streams.Stream("ts"), PHCConfig{TimestampJitterNS: 8})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sum, sumSq float64
	const n = 2000
	for i := 0; i < n; i++ {
		d := p.Timestamp() - p.Now()
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 1 {
		t.Fatalf("timestamp jitter mean = %v, want ~0", mean)
	}
	if std < 6 || std > 10 {
		t.Fatalf("timestamp jitter std = %v, want ~8", std)
	}
}

func TestTSCSampleNoise(t *testing.T) {
	s := sim.NewScheduler()
	streams := newTestStreams()
	o := NewOscillator(OscillatorConfig{StaticPPB: 1000}, nil, s.Now())
	tsc := NewTSC(s, o, streams.Stream("tsc"), 30)
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	exact := tsc.Now()
	var maxDev float64
	for i := 0; i < 1000; i++ {
		dev := math.Abs(tsc.Sample() - exact)
		if dev > maxDev {
			maxDev = dev
		}
	}
	if maxDev == 0 {
		t.Fatal("TSC sample noise absent")
	}
	if maxDev > 30*6 {
		t.Fatalf("TSC sample deviation %v ns exceeds 6 sigma", maxDev)
	}
}

func TestDriftOffset(t *testing.T) {
	// Γ = 2·5ppm·125ms = 1.25 µs — the paper's value.
	got := DriftOffset(5e-6, 125*time.Millisecond)
	if got != 1250*time.Nanosecond*1000/1000 {
		if got != time.Duration(1250)*time.Nanosecond {
			t.Fatalf("DriftOffset = %v, want 1.25µs", got)
		}
	}
	if got != 1250*time.Nanosecond {
		t.Fatalf("DriftOffset = %v, want 1250ns", got)
	}
}

func TestUniformPPBRange(t *testing.T) {
	rng := newTestStreams().Stream("u")
	for i := 0; i < 1000; i++ {
		v := UniformPPB(rng, 5000)
		if v < -5000 || v > 5000 {
			t.Fatalf("UniformPPB out of range: %v", v)
		}
	}
}
