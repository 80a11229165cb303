// Package phc2sys models LinuxPTP's phc2sys as used by the paper: instead
// of disciplining the kernel system clock, the clock-synchronization VM's
// phc2sys derives clock parameters mapping the node's platform counter
// (TSC) onto the NIC PHC's fault-tolerant global time, and publishes them
// into the VM's STSHMEM slot. Co-located VMs evaluate those parameters to
// read CLOCK_SYNCTIME.
//
// The parameters are maintained with a PI feedback loop on noisy TSC/PHC
// sample pairs — the source of the measured-precision instability the
// paper's §III-C discusses (feedback control of software clocks).
package phc2sys

import (
	"errors"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/servo"
	"gptpfta/internal/shmem"
	"gptpfta/internal/sim"
)

// Config parameterises the service.
type Config struct {
	// Interval between TSC/PHC sample pairs. Default 31.25 ms.
	Interval time.Duration
	// Slot is the VM's STSHMEM parameter slot.
	Slot int
	// StepThreshold re-anchors the parameters when the prediction error
	// exceeds it (LinuxPTP's --step_threshold); needed so CLOCK_SYNCTIME
	// follows PHC steps from the FTA servo instead of slewing for minutes.
	// Default 10 µs.
	StepThreshold time.Duration

	// vCPU preemption between the TSC and PHC reads makes a sample pair
	// non-atomic, corrupting the measured offset by the preemption time —
	// the mechanism behind the measured-precision spikes the paper
	// discusses (feedback control of software clocks under
	// virtualization). Zero probabilities disable the model.
	PreemptProb     float64       // per-sample probability of a short preemption
	PreemptMin      time.Duration // short preemption range
	PreemptMax      time.Duration
	LongPreemptProb float64 // rare long preemption (descheduled vCPU)
	LongPreemptMin  time.Duration
	LongPreemptMax  time.Duration
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 31250 * time.Microsecond
	}
	if c.StepThreshold <= 0 {
		c.StepThreshold = 2 * time.Microsecond
	}
	return c
}

// Service is one VM's phc2sys instance.
type Service struct {
	cfg   Config
	sched *sim.Scheduler
	phc   *clock.PHC
	tsc   *clock.TSC
	st    *shmem.STSHMEM
	pi    *servo.PI
	rng   *sim.Stream
	serviceState
}

// serviceState is the service's mutable state, copied whole by Snapshot.
type serviceState struct {
	params      shmem.ClockParams
	initialized bool
	ticker      *sim.Ticker // revalidated by the scheduler's restore

	updates uint64
}

// New creates a phc2sys service for the VM owning phc and slot cfg.Slot.
// rng feeds the preemption model; nil disables it.
func New(sched *sim.Scheduler, phc *clock.PHC, tsc *clock.TSC, st *shmem.STSHMEM, rng *sim.Stream, cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:   cfg,
		sched: sched,
		phc:   phc,
		tsc:   tsc,
		st:    st,
		rng:   rng,
		pi: servo.NewPI(servo.Config{
			SyncInterval:  cfg.Interval,
			StepThreshold: cfg.StepThreshold,
			// TSC and PHC rates differ by tens of ppm at most; a tight
			// clamp bounds the damage of any transient mis-estimate.
			MaxFreqPPB: 100000,
		}),
	}
}

// Start begins periodic parameter maintenance.
func (s *Service) Start() error {
	if s.ticker != nil {
		return errors.New("phc2sys: already started")
	}
	t, err := s.sched.Every(s.sched.Now(), s.cfg.Interval, s.step)
	if err != nil {
		return err
	}
	s.ticker = t
	return nil
}

// Stop halts maintenance (fail-silent VM). The last published parameters
// remain in STSHMEM and go stale — exactly what the hypervisor monitor
// watches for.
func (s *Service) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Running reports whether the service is live.
func (s *Service) Running() bool { return s.ticker != nil }

// Reset clears discipline state; used on VM reboot.
func (s *Service) Reset() {
	s.initialized = false
	s.pi.Reset()
}

// Updates reports the number of published parameter updates.
func (s *Service) Updates() uint64 { return s.updates }

// OnTakeover is the interrupt the STSHMEM virtual PCI device injects when
// the hypervisor monitor promotes this VM to maintain CLOCK_SYNCTIME: the
// service publishes immediately so the dependent clock has fresh
// parameters without waiting for the next period.
func (s *Service) OnTakeover() {
	s.step()
}

// step takes one noisy (TSC, PHC) sample pair and updates the parameters.
func (s *Service) step() {
	tscS := s.tsc.Sample()
	phcS := s.phc.Timestamp()
	// Preemption between the two reads skews the pair: the PHC read
	// happens later than the TSC read by the preemption time, so the
	// measured offset is off by exactly that amount.
	if s.rng != nil {
		if s.cfg.PreemptProb > 0 && s.rng.Float64() < s.cfg.PreemptProb {
			phcS += float64(s.cfg.PreemptMin) +
				s.rng.Float64()*float64(s.cfg.PreemptMax-s.cfg.PreemptMin)
		}
		if s.cfg.LongPreemptProb > 0 && s.rng.Float64() < s.cfg.LongPreemptProb {
			phcS += float64(s.cfg.LongPreemptMin) +
				s.rng.Float64()*float64(s.cfg.LongPreemptMax-s.cfg.LongPreemptMin)
		}
	}

	if !s.initialized {
		s.params = shmem.ClockParams{TSCRef: tscS, SyncRef: phcS, Ratio: 1}
		s.initialized = true
		s.publish(tscS)
		return
	}

	pred := s.params.SyncTimeAt(tscS)
	offset := pred - phcS
	adj, state := s.pi.Sample(offset, phcS)
	switch state {
	case servo.StateJump:
		// Large disagreement (reboot, PHC step by the FTA servo):
		// re-anchor the parameters directly.
		s.params = shmem.ClockParams{TSCRef: tscS, SyncRef: phcS, Ratio: s.params.Ratio}
	case servo.StateLocked:
		// Rebase at the predicted point (value-continuous) and steer the
		// ratio; the PI drives the prediction error to zero.
		s.params = shmem.ClockParams{
			TSCRef:  tscS,
			SyncRef: pred,
			Ratio:   1 + adj*1e-9,
		}
	default:
		// Unlocked: keep last parameters.
	}
	s.publish(tscS)
}

func (s *Service) publish(tscNow float64) {
	p := s.params
	p.UpdatedTSC = tscNow
	s.st.Publish(s.cfg.Slot, p)
	s.updates++
}

// serviceSnapshot captures the service's mutable state for warm-start
// forks, including its internal TSC-discipline servo. The STSHMEM region is
// snapshotted by its owning node.
type serviceSnapshot struct {
	serviceState
	pi any
}

// Snapshot implements sim.Snapshotter.
func (s *Service) Snapshot() any { return &serviceSnapshot{s.serviceState, s.pi.Snapshot()} }

// Restore implements sim.Snapshotter.
func (s *Service) Restore(snap any) {
	sn := snap.(*serviceSnapshot)
	s.serviceState = sn.serviceState
	s.pi.Restore(sn.pi)
}
