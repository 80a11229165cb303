// Package servo implements the proportional-integral clock servo that
// LinuxPTP's ptp4l and phc2sys use to discipline a clock from a stream of
// offset measurements. In the paper's architecture a single PI servo per
// clock-synchronization VM is shared between the M ptp4l instances through
// FTSHMEM; the instance that wins the aggregation gate feeds it the FTA
// master offset.
package servo

import (
	"fmt"
	"math"
	"time"
)

// State is the servo state machine, mirroring LinuxPTP.
type State int

const (
	// StateUnlocked: not enough samples yet; no adjustment.
	StateUnlocked State = iota + 1
	// StateJump: the caller must step the clock by -offset and not adjust
	// the frequency this sample.
	StateJump
	// StateLocked: the returned frequency adjustment must be applied.
	StateLocked
	// StateHoldover: the servo is frozen (quorum starvation); the caller
	// keeps the last applied frequency and ignores adjPPB.
	StateHoldover
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateUnlocked:
		return "unlocked"
	case StateJump:
		return "jump"
	case StateLocked:
		return "locked"
	case StateHoldover:
		return "holdover"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterises a PI servo. The zero value is completed by
// NewPI with LinuxPTP's defaults for the given sync interval.
type Config struct {
	// Kp, Ki are the proportional and integral gains (ppb per ns of
	// offset). If zero they are derived from SyncInterval with LinuxPTP's
	// scale/exponent defaults (kp = 0.7·S^-0.3, ki = 0.3·S^0.4).
	Kp, Ki float64
	// SyncInterval is the expected sample period.
	SyncInterval time.Duration
	// FirstStepThreshold: if the first measured offset exceeds this, the
	// servo requests a clock step. Defaults to 20 µs (LinuxPTP).
	FirstStepThreshold time.Duration
	// StepThreshold: if non-zero and a later offset exceeds it, the servo
	// requests another step (LinuxPTP default 0: never step when locked).
	StepThreshold time.Duration
	// MaxFreqPPB clamps the output. Defaults to 900 ppm.
	MaxFreqPPB float64
}

func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 125 * time.Millisecond
	}
	s := c.SyncInterval.Seconds()
	if c.Kp == 0 {
		c.Kp = 0.7 * math.Pow(s, -0.3)
	}
	if c.Ki == 0 {
		c.Ki = 0.3 * math.Pow(s, 0.4)
	}
	if c.FirstStepThreshold == 0 {
		c.FirstStepThreshold = 20 * time.Microsecond
	}
	if c.MaxFreqPPB == 0 {
		c.MaxFreqPPB = 900000
	}
	return c
}

// PI is a proportional-integral servo. Offsets follow the PTP convention
// offset = local − master: a positive offset means the local clock is
// ahead. Sample returns the frequency adjustment to apply to the local
// clock (already negated, ready for PHC.AdjFreq).
type PI struct {
	cfg Config
	piState
}

// piState is the servo's mutable state, copied whole by Snapshot.
type piState struct {
	state State
	count int

	firstOffset float64
	firstLocal  float64
	driftPPB    float64 // integral term: estimated local frequency error

	// Holdover support: while frozen the integral term is immutable and
	// Sample returns the last output unchanged; after Thaw the output is
	// slew-limited until it converges back onto the PI trajectory.
	frozen     bool
	slewing    bool
	maxSlewPPB float64
	lastOut    float64 // last frequency adjustment returned to the caller
}

// NewPI creates a PI servo.
func NewPI(cfg Config) *PI {
	return &PI{cfg: cfg.withDefaults(), piState: piState{state: StateUnlocked}}
}

// Config returns the effective configuration after defaulting.
func (p *PI) Config() Config { return p.cfg }

// State reports the current servo state.
func (p *PI) State() State { return p.state }

// DriftPPB reports the integral term (estimated oscillator frequency error).
func (p *PI) DriftPPB() float64 { return p.driftPPB }

// Reset returns the servo to the unlocked state, keeping configuration.
// Used when a clock-synchronization VM reboots after fault injection.
func (p *PI) Reset() {
	p.piState = piState{state: StateUnlocked, maxSlewPPB: p.maxSlewPPB}
}

// Freeze puts the servo into holdover: the integral term stops updating
// and Sample returns the last output with StateHoldover, so the
// disciplined clock coasts on its last good frequency correction instead
// of chasing starved (or absent) measurements.
func (p *PI) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.state = StateHoldover
}

// Thaw leaves holdover and re-enters closed-loop control. maxSlewPPB, when
// positive, bounds how fast the output frequency may move per sample until
// it converges back onto the PI trajectory — the bounded slew that turns a
// post-outage offset into a ramp instead of a jump. The acquisition
// prologue is skipped: the pre-freeze drift estimate is retained, so the
// first post-thaw sample cannot request a clock step.
func (p *PI) Thaw(maxSlewPPB float64) {
	if !p.frozen {
		return
	}
	p.frozen = false
	p.maxSlewPPB = maxSlewPPB
	p.slewing = maxSlewPPB > 0
	if p.count < 2 {
		p.count = 2
	}
	p.state = StateLocked
}

// Frozen reports whether the servo is in holdover.
func (p *PI) Frozen() bool { return p.frozen }

// Sample feeds one offset measurement (offsetNS = local − master, localTS =
// local clock time of the measurement in ns) and returns the frequency
// adjustment to apply and the resulting state:
//
//   - StateUnlocked: ignore adjPPB, keep the clock free-running.
//   - StateJump: step the clock by −offsetNS, then apply adjPPB.
//   - StateLocked: apply adjPPB.
//   - StateHoldover: servo frozen; adjPPB repeats the last output.
func (p *PI) Sample(offsetNS, localTS float64) (adjPPB float64, state State) {
	if p.frozen {
		return p.lastOut, StateHoldover
	}
	adj, st := p.sampleRaw(offsetNS, localTS)
	if p.slewing && st == StateLocked {
		delta := adj - p.lastOut
		switch {
		case delta > p.maxSlewPPB:
			adj = p.lastOut + p.maxSlewPPB
		case delta < -p.maxSlewPPB:
			adj = p.lastOut - p.maxSlewPPB
		default:
			p.slewing = false // back on the PI trajectory
		}
	}
	p.lastOut = adj
	return adj, st
}

func (p *PI) sampleRaw(offsetNS, localTS float64) (adjPPB float64, state State) {
	switch p.count {
	case 0:
		p.firstOffset = offsetNS
		p.firstLocal = localTS
		p.count = 1
		p.state = StateUnlocked
		return 0, p.state
	case 1:
		dt := localTS - p.firstLocal
		if dt <= 0 {
			// Degenerate sampling; wait for a usable second sample.
			p.firstOffset = offsetNS
			p.firstLocal = localTS
			return 0, StateUnlocked
		}
		// Initial drift estimate from the first two samples.
		p.driftPPB = clamp((offsetNS-p.firstOffset)/dt*1e9, p.cfg.MaxFreqPPB)
		p.count = 2
		if math.Abs(offsetNS) > float64(p.cfg.FirstStepThreshold) {
			p.state = StateJump
		} else {
			p.state = StateLocked
		}
		return clamp(-p.driftPPB, p.cfg.MaxFreqPPB), p.state
	default:
		if p.cfg.StepThreshold > 0 && math.Abs(offsetNS) > float64(p.cfg.StepThreshold) {
			// A step while locked means the disciplined clock jumped under
			// us (e.g. ptp4l stepped the PHC between our samples). The
			// integral term is now meaningless — restart acquisition, or
			// a wound-up drift estimate keeps the servo oscillating
			// between the frequency clamps.
			p.state = StateJump
			p.count = 0
			p.driftPPB = 0
			return 0, p.state
		}
		kiTerm := p.cfg.Ki * offsetNS
		est := p.driftPPB + p.cfg.Kp*offsetNS + kiTerm
		p.driftPPB = clamp(p.driftPPB+kiTerm, p.cfg.MaxFreqPPB)
		p.state = StateLocked
		return clamp(-est, p.cfg.MaxFreqPPB), p.state
	}
}

func clamp(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	if v < -limit {
		return -limit
	}
	return v
}
