package clock

import (
	"time"

	"gptpfta/internal/sim"
)

// PHC is a PTP hardware clock: an oscillator-driven counter that a servo can
// discipline by adjusting its frequency (AdjFreq) or stepping its value
// (Step), mirroring the clock_adjtime(2) interface that ptp4l uses on the
// Intel i210's PHC.
//
// Timestamping reads add hardware timestamp jitter, modelling the i210's
// timestamp unit.
type PHC struct {
	sched     *sim.Scheduler
	osc       *Oscillator
	rng       *sim.Stream
	jitterS   float64 // hardware timestamp jitter sigma, ns
	maxAdjPPB float64
	phcState
}

// phcState is the discipline state:
// value = baseNS + oscElapsedSinceRef·(1+adjPPB·1e-9).
type phcState struct {
	adjPPB float64
	baseNS float64
	oscRef float64 // oscillator elapsed at the last discipline change
}

// PHCConfig configures a PHC.
type PHCConfig struct {
	// TimestampJitterNS is the 1-sigma Gaussian hardware timestamping
	// noise, in nanoseconds.
	TimestampJitterNS float64
	// InitialOffsetNS is the PHC value at creation (e.g. an arbitrary boot
	// epoch offset between nodes).
	InitialOffsetNS float64
	// MaxAdjPPB clamps servo frequency adjustments, like the kernel's
	// max_adj. Zero means the i210 default of 62499999 ppb.
	MaxAdjPPB float64
}

// NewPHC creates a PHC driven by osc. rng supplies timestamp jitter.
func NewPHC(sched *sim.Scheduler, osc *Oscillator, rng *sim.Stream, cfg PHCConfig) *PHC {
	maxAdj := cfg.MaxAdjPPB
	if maxAdj == 0 {
		maxAdj = 62499999
	}
	return &PHC{
		sched:     sched,
		osc:       osc,
		rng:       rng,
		jitterS:   cfg.TimestampJitterNS,
		maxAdjPPB: maxAdj,
		phcState:  phcState{baseNS: cfg.InitialOffsetNS, oscRef: osc.ElapsedAt(sched.Now())},
	}
}

// ReadAt returns the PHC value (ns) at true instant now, without jitter.
func (p *PHC) ReadAt(now sim.Time) float64 {
	elapsed := p.osc.ElapsedAt(now) - p.oscRef
	return p.baseNS + elapsed*(1+p.adjPPB*ppbScale)
}

// Now returns the current PHC value in nanoseconds, without jitter.
func (p *PHC) Now() float64 { return p.ReadAt(p.sched.Now()) }

// Timestamp returns the current PHC value with hardware timestamping jitter
// applied, as the NIC's timestamp unit would report for a frame at the wire
// right now.
func (p *PHC) Timestamp() float64 {
	v := p.Now()
	if p.rng != nil && p.jitterS > 0 {
		v += p.rng.NormFloat64() * p.jitterS
	}
	return v
}

// AdjFreq sets the servo frequency correction in parts per billion, clamped
// to the hardware's adjustment range. The clock value is continuous across
// the change.
func (p *PHC) AdjFreq(ppb float64) {
	if ppb > p.maxAdjPPB {
		ppb = p.maxAdjPPB
	}
	if ppb < -p.maxAdjPPB {
		ppb = -p.maxAdjPPB
	}
	p.rebase()
	p.adjPPB = ppb
}

// FreqPPB reports the current servo frequency correction.
func (p *PHC) FreqPPB() float64 { return p.adjPPB }

// Step adds delta nanoseconds to the clock value instantaneously.
func (p *PHC) Step(deltaNS float64) {
	p.rebase()
	p.baseNS += deltaNS
}

// Set forces the clock to the given value.
func (p *PHC) Set(valueNS float64) {
	p.rebase()
	p.baseNS = valueNS
}

// rebase materialises the current value into baseNS so that subsequent rate
// changes are continuous.
func (p *PHC) rebase() {
	now := p.sched.Now()
	p.baseNS = p.ReadAt(now)
	p.oscRef = p.osc.ElapsedAt(now)
}

// RatePPBVsTrue estimates the PHC's total rate offset versus true time, for
// test assertions: (1+osc)(1+adj)-1 in ppb.
func (p *PHC) RatePPBVsTrue() float64 {
	r := (1 + p.osc.FreqPPB()*ppbScale) * (1 + p.adjPPB*ppbScale)
	return (r - 1) / ppbScale
}

// TSC is the per-node platform counter (invariant TSC). It is a plain
// oscillator-driven counter visible to every VM on the node; STSHMEM clock
// parameters map TSC readings onto the fault-tolerant global time.
type TSC struct {
	sched *sim.Scheduler
	osc   *Oscillator
	rng   *sim.Stream
	// readNoiseNS models the software read-out noise (vDSO path, cache
	// effects) a guest observes when sampling the counter.
	readNoiseNS float64
}

// NewTSC creates a platform counter on the given oscillator.
func NewTSC(sched *sim.Scheduler, osc *Oscillator, rng *sim.Stream, readNoiseNS float64) *TSC {
	return &TSC{sched: sched, osc: osc, rng: rng, readNoiseNS: readNoiseNS}
}

// ReadAt returns the counter value (ns since node boot) at true instant now,
// without read-out noise.
func (t *TSC) ReadAt(now sim.Time) float64 { return t.osc.ElapsedAt(now) }

// Now returns the counter value at the current instant, without noise.
func (t *TSC) Now() float64 { return t.ReadAt(t.sched.Now()) }

// Sample returns a noisy read of the counter, as phc2sys would observe.
func (t *TSC) Sample() float64 {
	v := t.Now()
	if t.rng != nil && t.readNoiseNS > 0 {
		v += t.rng.NormFloat64() * t.readNoiseNS
	}
	return v
}

// DriftOffset computes the drift-offset term Γ = 2·r_max·S of the
// Kopetz/Ochsenreiter convergence function for a maximum drift rate r_max
// (dimensionless, e.g. 5e-6 for 5 ppm) and resynchronisation interval S.
func DriftOffset(rMax float64, s time.Duration) time.Duration {
	return time.Duration(2 * rMax * float64(s))
}
