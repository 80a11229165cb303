// Package clock models the imperfect hardware timescales of the testbed:
// free-running crystal oscillators with static frequency error and random
// wander, PTP hardware clocks (PHCs) that a servo can discipline, and the
// per-node platform counter (TSC) from which co-located VMs derive
// CLOCK_SYNCTIME.
//
// All clocks are functions of the simulation's ideal ("true") time; they are
// advanced lazily on read, so no periodic events are needed to keep them
// ticking. Frequency wander is a deterministic random walk over fixed
// true-time segments, drawn from a named sim.Streams stream, which keeps
// whole experiment runs reproducible.
package clock

import (
	"fmt"
	"math"
	"time"

	"gptpfta/internal/sim"
)

const (
	// PPB scales parts-per-billion frequency offsets to dimensionless rate.
	ppbScale = 1e-9
	// defaultWanderSegment is the true-time granularity of the frequency
	// random walk.
	defaultWanderSegment = time.Second
)

// OscillatorConfig describes the imperfections of a crystal oscillator.
type OscillatorConfig struct {
	// StaticPPB is the constant frequency error in parts per billion.
	// IEEE 802.1AS assumes |error| <= 100 ppm for conformant clocks; the
	// paper's bound derivation uses r_max = 5 ppm.
	StaticPPB float64
	// WanderPPBPerSqrtSec is the standard deviation of the per-segment
	// random-walk step, normalised to a one-second segment.
	WanderPPBPerSqrtSec float64
	// Segment is the wander update granularity; defaults to one second.
	Segment time.Duration
}

// Oscillator is a free-running local timescale. Its rate relative to true
// time is (1 + (static + wander)·1e-9), where wander follows a random walk.
type Oscillator struct {
	cfg     OscillatorConfig
	rng     *sim.Stream
	stepPPB float64 // per-segment random-walk standard deviation
	oscillatorState
}

// oscillatorState is the lazily-materialised local timescale.
type oscillatorState struct {
	lastTrue  sim.Time // true instant of the last materialisation
	localNS   float64  // local nanoseconds elapsed since creation, at lastTrue
	wanderPPB float64  // current random-walk component
	segEnd    sim.Time // true instant at which the wander steps next
}

// NewOscillator creates an oscillator whose wander stream is drawn from rng.
// The oscillator starts at local time 0 at true instant start.
func NewOscillator(cfg OscillatorConfig, rng *sim.Stream, start sim.Time) *Oscillator {
	seg := cfg.Segment
	if seg <= 0 {
		seg = defaultWanderSegment
	}
	cfg.Segment = seg
	return &Oscillator{
		cfg:             cfg,
		rng:             rng,
		stepPPB:         cfg.WanderPPBPerSqrtSec * math.Sqrt(seg.Seconds()),
		oscillatorState: oscillatorState{lastTrue: start, segEnd: start.Add(seg)},
	}
}

// FreqPPB reports the oscillator's current total frequency offset.
func (o *Oscillator) FreqPPB() float64 { return o.cfg.StaticPPB + o.wanderPPB }

// rate returns the current dimensionless local/true rate.
func (o *Oscillator) rate() float64 { return 1 + (o.cfg.StaticPPB+o.wanderPPB)*ppbScale }

// ElapsedAt returns the local nanoseconds elapsed since the oscillator was
// created, as observed at true instant now. now must not precede the last
// read; reads are monotone because true time is.
func (o *Oscillator) ElapsedAt(now sim.Time) float64 {
	o.advance(now)
	return o.localNS
}

// advance materialises local time up to true instant now, stepping the
// wander random walk at segment boundaries.
func (o *Oscillator) advance(now sim.Time) {
	if now <= o.lastTrue {
		return
	}
	for o.segEnd < now {
		dt := float64(o.segEnd - o.lastTrue)
		o.localNS += dt * o.rate()
		o.lastTrue = o.segEnd
		if o.rng != nil && o.stepPPB > 0 {
			o.wanderPPB += o.rng.NormFloat64() * o.stepPPB
		}
		o.segEnd = o.segEnd.Add(o.cfg.Segment)
	}
	dt := float64(now - o.lastTrue)
	o.localNS += dt * o.rate()
	o.lastTrue = now
}

// String describes the oscillator state for diagnostics.
func (o *Oscillator) String() string {
	return fmt.Sprintf("osc(static=%.1fppb wander=%.2fppb)", o.cfg.StaticPPB, o.wanderPPB)
}

// UniformPPB draws a static frequency error uniformly from [-maxPPB, maxPPB].
func UniformPPB(rng *sim.Stream, maxPPB float64) float64 {
	return (2*rng.Float64() - 1) * maxPPB
}
