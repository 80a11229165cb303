// Package ptp4l implements the paper's extended ptp4l: inside each
// clock-synchronization VM, M per-domain protocol instances share an
// FTSHMEM region; each instance stores its domain's grandmaster offset
// there, and once per synchronization interval the first instance through
// the aggregation gate applies the fault-tolerant average of the M offsets
// to the shared PI controller and disciplines the VM's NIC PHC.
//
// The Stack also implements the paper's start-up protocol (§II-B): the
// nodes of the M−1 non-initial domains first synchronize to the initial
// domain's grandmaster; each node switches to fault-tolerant operation once
// its offset to the initial domain stays below a configurable threshold.
// Grandmasters of non-initial domains begin emitting Sync immediately, so
// the initial domain's grandmaster can observe when the system has
// converged.
package ptp4l

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"gptpfta/internal/fta"
	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/servo"
	"gptpfta/internal/shmem"
	"gptpfta/internal/sim"
)

// Mode is the stack's synchronization state.
type Mode int

const (
	// ModeStartup: tracking the initial domain's grandmaster.
	ModeStartup Mode = iota + 1
	// ModeFTOperation: aggregating all domains with the FTA.
	ModeFTOperation
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeStartup:
		return "startup"
	case ModeFTOperation:
		return "ft_operation"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Event kinds emitted through the stack's event callback.
const (
	EventModeChange = "mode_change"
	EventServoStep  = "servo_step"
	EventFlagChange = "flag_change"
	EventFault      = "ptp4l_fault"
	EventHoldover   = "holdover"
)

// Event is a notable stack occurrence for the experiment event log.
type Event struct {
	Kind   string
	Detail string
}

// Config parameterises a clock-synchronization VM's ptp4l stack.
type Config struct {
	// Name identifies the VM (e.g. "c11") in events and diagnostics.
	Name string
	// Domains lists all M gPTP domains to aggregate.
	Domains []int
	// GMDomain is the domain this VM is grandmaster of, or -1.
	GMDomain int
	// InitialDomain is the start-up reference domain.
	InitialDomain int
	// F is the number of tolerated Byzantine grandmaster faults.
	F int
	// SyncInterval is the gPTP synchronization interval S (125 ms).
	SyncInterval time.Duration
	// StartupThresholdNS: a node enters fault-tolerant operation when its
	// offset to the initial domain stays below this threshold.
	StartupThresholdNS float64
	// StartupStableCount is how many consecutive below-threshold samples
	// the switch requires. Default 8 (one second at S = 125 ms).
	StartupStableCount int
	// ValidityThresholdNS is the FTSHMEM validity-flag threshold.
	ValidityThresholdNS float64
	// FlagPolicy selects how flags influence aggregation.
	FlagPolicy fta.FlagPolicy
	// StaleIntervals: a stored offset no longer counts as fresh after this
	// many sync intervals without an update. Default 3.
	StaleIntervals int

	// HoldoverWindow, when positive, enables graceful degradation: if FTA
	// quorum starvation persists longer than this window during
	// fault-tolerant operation, the shared servo enters holdover (integral
	// frozen, PHC coasting on its last good frequency correction) instead
	// of free-running on garbage or jumping on the first post-outage
	// sample. Zero (the default) disables the watchdog entirely, keeping
	// the legacy free-run behavior and the golden digests bit-identical.
	HoldoverWindow time.Duration
	// ReacquireThresholdNS: while in holdover, an aggregate below this
	// magnitude counts toward re-acquisition. Default 20 µs.
	ReacquireThresholdNS float64
	// ReacquireStableCount is how many consecutive below-threshold
	// aggregates holdover exit requires (hysteresis, so one lucky sample
	// during a flapping partition cannot thaw the servo). Default 8.
	ReacquireStableCount int
	// HoldoverMaxSlewPPB bounds how fast the servo output may move per
	// sample right after holdover exit. Default 50000 (50 ppm).
	HoldoverMaxSlewPPB float64

	// Transient software fault probabilities for the grandmaster role.
	TxTimestampTimeoutProb float64
	DeadlineMissProb       float64

	// SkipStartup starts the stack directly in fault-tolerant operation,
	// bypassing the paper's start-up protocol. This reproduces the
	// Kyriakakis-style baseline the paper criticises (no initial
	// grandmaster synchronization) in the ablation benchmarks.
	SkipStartup bool
	// DisableDiscipline stores offsets into FTSHMEM but never adjusts the
	// local clock — the "clients only" limitation of the baseline, where
	// grandmaster nodes cannot participate in aggregation and free-run.
	DisableDiscipline bool
}

func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 125 * time.Millisecond
	}
	if c.StartupStableCount <= 0 {
		// Three seconds at S = 125 ms: long enough for the PI servo's
		// initial drift-estimation transient to settle, so a node cannot
		// declare convergence on boot-time coincidence.
		c.StartupStableCount = 24
	}
	if c.StartupThresholdNS <= 0 {
		c.StartupThresholdNS = 1000
	}
	if c.ValidityThresholdNS <= 0 {
		c.ValidityThresholdNS = 10000
	}
	if c.FlagPolicy == 0 {
		c.FlagPolicy = fta.FlagMonitor
	}
	if c.StaleIntervals <= 0 {
		c.StaleIntervals = 3
	}
	if c.ReacquireThresholdNS <= 0 {
		c.ReacquireThresholdNS = 20000
	}
	if c.ReacquireStableCount <= 0 {
		c.ReacquireStableCount = 8
	}
	if c.HoldoverMaxSlewPPB <= 0 {
		c.HoldoverMaxSlewPPB = 50000
	}
	return c
}

// Stack is one clock-synchronization VM's extended ptp4l: M per-domain
// instances, the FTSHMEM region, the shared PI servo, and (optionally) the
// grandmaster role for one domain.
type Stack struct {
	cfg   Config
	sched *sim.Scheduler
	rng   sim.RNG
	nic   *netsim.NIC

	ld *gptp.LinkDelay
	// slaves and obsOffset are indexed by domain slot, the domain's
	// position in cfg.Domains (see slot). The slave at the slot of the
	// domain this VM masters is nil.
	slaves []*gptp.Slave
	master *gptp.Master
	shm    *shmem.FTSHMEM

	// parts lists the owned components a snapshot captures: the NIC, the
	// pdelay endpoint, the FTSHMEM region and its servo, the grandmaster
	// role and the per-domain slaves.
	parts []sim.Snapshotter

	lastFlags    []bool
	aux          netsim.RxHandler
	tap          netsim.RxHandler
	onEvent      func(Event)
	syncObserver func(domain int, latency time.Duration)

	// readings and flags are the aggregation's and the start-up checks'
	// scratch buffers, reused every step; nothing retains them past one.
	readings []fta.Reading
	flags    []bool
	stackState

	// Observability handles, resolved once by Instrument. All remain nil
	// (inert no-ops) when the stack is not instrumented.
	obsOffset     []*obs.Histogram
	obsAggs       *obs.Counter
	obsDiscarded  *obs.Counter
	obsDiscardMal *obs.Counter
	obsStarved    *obs.Counter
	obsFlagFlips  *obs.Counter
	obsServoSteps *obs.Counter
	obsHoldEnter  *obs.Counter
	obsHoldExit   *obs.Counter
}

// stackState is the stack's scalar state, copied whole by Snapshot.
type stackState struct {
	mode    Mode
	stable  int
	running bool

	// Holdover state machine (active only when cfg.HoldoverWindow > 0).
	holdover     bool
	lastGoodAgg  sim.Time
	reacquire    int // consecutive below-threshold aggregates
	reacquireAny int // successful aggregates since holdover entry
	watchdog     *sim.Ticker
}

// offsetBuckets covers the offsets seen across the experiments: sub-100 ns
// steady state out to millisecond-scale start-up transients, symmetric
// around zero because offsets are signed.
var offsetBuckets = []float64{-1e6, -1e5, -1e4, -1e3, -100, 0, 100, 1e3, 1e4, 1e5, 1e6}

// Instrument registers the stack's metrics with reg: per-domain offset
// histograms, FTA aggregation counters, flag flips, servo steps, and
// gauge funcs sampling the shared PI controller. Handles are resolved once
// here, never per-update; a nil registry leaves every handle nil, and nil
// handles are no-ops, so the hot path needs no conditionals.
func (s *Stack) Instrument(reg *obs.Registry) {
	vm := obs.L("vm", s.cfg.Name)
	for i, d := range s.cfg.Domains {
		s.obsOffset[i] = reg.Histogram("ptp4l_offset_ns", offsetBuckets, vm, obs.L("domain", strconv.Itoa(d)))
	}
	s.obsAggs = reg.Counter("ptp4l_fta_aggregations", vm)
	s.obsDiscarded = reg.Counter("ptp4l_fta_discarded", vm)
	s.obsDiscardMal = reg.Counter("ptp4l_fta_discarded_malicious", vm)
	s.obsStarved = reg.Counter("ptp4l_fta_starved", vm)
	s.obsFlagFlips = reg.Counter("ptp4l_flag_flips", vm)
	s.obsServoSteps = reg.Counter("ptp4l_servo_steps", vm)
	s.obsHoldEnter = reg.Counter("ptp4l_holdover_entered", vm)
	s.obsHoldExit = reg.Counter("ptp4l_holdover_exited", vm)
	reg.GaugeFunc("ptp4l_holdover", func() float64 {
		if s.holdover {
			return 1
		}
		return 0
	}, vm)
	reg.GaugeFunc("ptp4l_servo_state", func() float64 { return float64(s.shm.Servo().State()) }, vm)
	reg.GaugeFunc("ptp4l_servo_drift_ppb", func() float64 { return s.shm.Servo().DriftPPB() }, vm)
	reg.GaugeFunc("ptp4l_mode", func() float64 { return float64(s.mode) }, vm)
}

// New creates a stack on nic. onEvent, if non-nil, receives stack events.
func New(nic *netsim.NIC, sched *sim.Scheduler, rng sim.RNG, cfg Config, onEvent func(Event)) (*Stack, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Domains) == 0 {
		return nil, errors.New("ptp4l: no domains configured")
	}
	staleNS := float64(cfg.StaleIntervals) * float64(cfg.SyncInterval)
	pi := servo.NewPI(servo.Config{SyncInterval: cfg.SyncInterval})
	s := &Stack{
		cfg:        cfg,
		sched:      sched,
		rng:        rng,
		nic:        nic,
		slaves:     make([]*gptp.Slave, len(cfg.Domains)),
		shm:        shmem.NewFTSHMEM(cfg.Domains, staleNS, pi),
		obsOffset:  make([]*obs.Histogram, len(cfg.Domains)),
		onEvent:    onEvent,
		stackState: stackState{mode: ModeStartup},
	}
	if cfg.SkipStartup {
		s.mode = ModeFTOperation
	}
	s.ld = gptp.NewLinkDelay(cfg.Name, sched, rng, func(f *netsim.Frame) (float64, bool) {
		ts, err := nic.Send(f)
		return ts, err == nil
	}, gptp.LinkDelayConfig{})
	for i, d := range cfg.Domains {
		if d != cfg.GMDomain { // the GM does not slave to its own domain
			s.slaves[i] = gptp.NewSlave(d, s.ld, s.onOffset)
		}
	}
	if cfg.GMDomain >= 0 {
		s.master = gptp.NewMaster(nic, sched, rng, gptp.MasterConfig{
			Domain:                 cfg.GMDomain,
			GMIdentity:             cfg.Name,
			SyncInterval:           cfg.SyncInterval,
			TxTimestampTimeoutProb: cfg.TxTimestampTimeoutProb,
			DeadlineMissProb:       cfg.DeadlineMissProb,
		}, func(kind string) { s.emit(EventFault, kind) })
	}
	s.parts = []sim.Snapshotter{nic, s.ld, s.shm, pi}
	if s.master != nil {
		s.parts = append(s.parts, s.master)
	}
	for _, sl := range s.slaves {
		if sl != nil {
			s.parts = append(s.parts, sl)
		}
	}
	nic.SetHandler(s.receive)
	return s, nil
}

// slot returns domain's position in cfg.Domains, or -1.
func (s *Stack) slot(domain int) int {
	for i, d := range s.cfg.Domains {
		if d == domain {
			return i
		}
	}
	return -1
}

// slave returns the instance slaving to domain, or nil.
func (s *Stack) slave(domain int) *gptp.Slave {
	if i := s.slot(domain); i >= 0 {
		return s.slaves[i]
	}
	return nil
}

// Name reports the VM name.
func (s *Stack) Name() string { return s.cfg.Name }

// Mode reports the current synchronization mode.
func (s *Stack) Mode() Mode { return s.mode }

// Running reports whether the stack is live (not fail-silent).
func (s *Stack) Running() bool { return s.running }

// NIC returns the VM's passthrough NIC.
func (s *Stack) NIC() *netsim.NIC { return s.nic }

// FTSHMEM exposes the shared region for diagnostics and tests.
func (s *Stack) FTSHMEM() *shmem.FTSHMEM { return s.shm }

// Master exposes the grandmaster role, or nil.
func (s *Stack) Master() *gptp.Master { return s.master }

// LinkDelay exposes the NIC port's pdelay endpoint.
func (s *Stack) LinkDelay() *gptp.LinkDelay { return s.ld }

// IsGM reports whether this VM masters a domain.
func (s *Stack) IsGM() bool { return s.cfg.GMDomain >= 0 }

// IsInitialGM reports whether this VM masters the start-up reference domain.
func (s *Stack) IsInitialGM() bool { return s.cfg.GMDomain == s.cfg.InitialDomain }

// SetAuxHandler installs a handler for non-gPTP frames (the measurement
// agent). It runs for every frame the demultiplexer does not consume.
func (s *Stack) SetAuxHandler(h netsim.RxHandler) { s.aux = h }

// SetSyncObserver installs a callback invoked with the observed network
// latency of every received Sync — the per-path latency data the paper
// extracts from ptp4l to instantiate the precision bound.
func (s *Stack) SetSyncObserver(fn func(domain int, latency time.Duration)) {
	s.syncObserver = fn
}

// Compromise models the paper's attacker replacing the benign ptp4l with a
// malicious instance after a successful root exploit: every distributed
// preciseOriginTimestamp is shifted by offsetNS (the paper uses −24 µs).
// The VM's own discipline keeps running — the attack targets the *other*
// nodes' aggregation, not the attacker's own clock.
func (s *Stack) Compromise(offsetNS float64) {
	if s.master != nil {
		s.master.SetMaliciousOffset(offsetNS)
	}
}

// Compromised reports whether the grandmaster distributes falsified
// timestamps.
func (s *Stack) Compromised() bool {
	return s.master != nil && s.master.Config().MaliciousOriginOffsetNS != 0
}

// Start boots the stack: pdelay begins, and grandmasters of the initial
// domain begin emitting immediately (they are the start-up reference);
// other grandmasters emit from boot as well so the initial grandmaster can
// observe system convergence.
func (s *Stack) Start() error {
	if s.running {
		return errors.New("ptp4l: already running")
	}
	s.running = true
	if err := s.ld.Start(); err != nil {
		return err
	}
	if s.cfg.HoldoverWindow > 0 && s.watchdog == nil {
		s.lastGoodAgg = s.sched.Now()
		tick, err := s.sched.Every(s.sched.Now().Add(s.cfg.SyncInterval),
			s.cfg.SyncInterval, s.holdoverWatch)
		if err != nil {
			return err
		}
		s.watchdog = tick
	}
	if s.master != nil && !s.master.Running() {
		if err := s.master.Start(); err != nil {
			return err
		}
	}
	if s.IsInitialGM() {
		// The reference free-runs through start-up.
		return nil
	}
	return nil
}

// Fail makes the VM fail-silent: the NIC goes down and every periodic
// activity stops. The PHC (hardware) keeps running.
func (s *Stack) Fail() {
	s.running = false
	s.nic.SetDown(true)
	s.ld.Stop()
	if s.master != nil {
		s.master.Stop()
	}
	if s.watchdog != nil {
		s.watchdog.Stop()
		s.watchdog = nil
	}
	s.holdover = false
	s.reacquire = 0
	s.reacquireAny = 0
}

// Reboot restarts a failed VM: shared state is re-established, the servo
// resets, and the stack re-enters the start-up protocol.
func (s *Stack) Reboot() error {
	if s.running {
		return errors.New("ptp4l: reboot while running")
	}
	s.nic.SetDown(false)
	s.shm.Reset()
	s.mode = ModeStartup
	if s.cfg.SkipStartup {
		s.mode = ModeFTOperation
	}
	s.stable = 0
	s.lastFlags = nil
	return s.Start()
}

// SetTap installs a passive observer of every received frame (the trace
// recorder); it runs before demultiplexing and cannot consume frames.
func (s *Stack) SetTap(h netsim.RxHandler) { s.tap = h }

// receive demultiplexes NIC frames to the pdelay endpoint, the per-domain
// instances, or the auxiliary handler.
func (s *Stack) receive(f *netsim.Frame, rxTS float64) {
	if s.tap != nil {
		s.tap(f, rxTS)
	}
	switch m := f.Payload.(type) {
	case *gptp.PdelayReq, *gptp.PdelayResp, *gptp.PdelayRespFollowUp:
		s.ld.HandleFrame(f.Payload, rxTS)
	case *gptp.Sync:
		if s.syncObserver != nil {
			s.syncObserver(m.Domain, f.PathLatency(s.sched.Now()))
		}
		if sl := s.slave(m.Domain); sl != nil {
			sl.HandleSync(m, rxTS)
		}
	case *gptp.FollowUp:
		if sl := s.slave(m.Domain); sl != nil {
			sl.HandleFollowUp(m)
		}
	default:
		if s.aux != nil {
			s.aux(f, rxTS)
		}
	}
}

// onOffset is the per-domain instance callback: store to FTSHMEM, then run
// the start-up protocol or the aggregation gate.
func (s *Stack) onOffset(sample gptp.OffsetSample) {
	if !s.running {
		return
	}
	nowPHC := s.nic.PHC().Now()
	s.shm.StoreOffset(sample, nowPHC)
	i := s.slot(sample.Domain)
	s.obsOffset[i].Observe(sample.OffsetNS)
	switch s.mode {
	case ModeStartup:
		s.startupStep(sample, nowPHC)
	case ModeFTOperation:
		s.aggregate(nowPHC)
	}
}

// startupReferenceDomain picks the domain tracked during start-up: the
// configured initial domain while it is fresh, otherwise the lowest fresh
// foreign domain (so a node rebooting while the initial grandmaster is
// fail-silent can still rejoin).
func (s *Stack) startupReferenceDomain(nowPHC float64) (int, bool) {
	s.readings = s.shm.AppendReadings(s.readings[:0], nowPHC)
	best := -1
	for _, r := range s.readings {
		if !r.Fresh || r.Domain == s.cfg.GMDomain {
			continue
		}
		if r.Domain == s.cfg.InitialDomain {
			return r.Domain, true
		}
		if best == -1 || r.Domain < best {
			best = r.Domain
		}
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

func (s *Stack) startupStep(sample gptp.OffsetSample, nowPHC float64) {
	if s.IsInitialGM() {
		// The reference grandmaster free-runs and enters fault-tolerant
		// operation once every fresh foreign domain agrees with it within
		// the start-up threshold.
		s.initialGMConvergence(nowPHC)
		return
	}
	ref, ok := s.startupReferenceDomain(nowPHC)
	if !ok || sample.Domain != ref {
		return
	}
	adj, state := s.shm.Servo().Sample(sample.OffsetNS, nowPHC)
	s.applyServo(sample.OffsetNS, adj, state)
	if state == servo.StateLocked && math.Abs(sample.OffsetNS) < s.cfg.StartupThresholdNS {
		s.stable++
		if s.stable >= s.cfg.StartupStableCount {
			s.enterFTOperation()
		}
	} else {
		s.stable = 0
	}
}

// initialGMConvergence checks whether the M−1 other grandmasters have
// synchronized to this reference within the start-up threshold.
func (s *Stack) initialGMConvergence(nowPHC float64) {
	s.readings = s.shm.AppendReadings(s.readings[:0], nowPHC)
	freshForeign := 0
	for _, r := range s.readings {
		if r.Domain == s.cfg.GMDomain || !r.Fresh {
			continue
		}
		if math.Abs(r.OffsetNS) >= s.cfg.StartupThresholdNS {
			s.stable = 0
			return
		}
		freshForeign++
	}
	if freshForeign < 1 {
		return // nothing observed yet; a fully silent network cannot converge
	}
	// The check runs on every foreign sample (≈ (M−1)·8 Hz), so scale the
	// required streak to cover the same wall-clock window as the tracking
	// nodes' per-domain streak.
	required := s.cfg.StartupStableCount * maxInt(1, len(s.cfg.Domains)-1)
	s.stable++
	if s.stable >= required {
		s.enterFTOperation()
	}
}

func (s *Stack) enterFTOperation() {
	s.mode = ModeFTOperation
	s.stable = 0
	// The starvation clock starts now: start-up time must not count toward
	// the holdover window.
	s.lastGoodAgg = s.sched.Now()
	s.emit(EventModeChange, ModeFTOperation.String())
}

// Holdover reports whether the shared servo is currently in holdover.
func (s *Stack) Holdover() bool { return s.holdover }

// holdoverWatch is the starvation watchdog (one tick per sync interval,
// only scheduled when HoldoverWindow > 0): if no full-quorum (2f+1 fresh
// readings) aggregation happened within the window while in fault-tolerant
// operation, freeze the servo.
func (s *Stack) holdoverWatch() {
	if !s.running || s.mode != ModeFTOperation || s.holdover {
		return
	}
	if s.sched.Now()-s.lastGoodAgg > sim.Time(s.cfg.HoldoverWindow) {
		s.enterHoldover()
	}
}

func (s *Stack) enterHoldover() {
	s.holdover = true
	s.reacquire = 0
	s.reacquireAny = 0
	s.shm.Servo().Freeze()
	s.obsHoldEnter.Inc()
	s.emit(EventHoldover, "enter")
}

func (s *Stack) exitHoldover() {
	s.holdover = false
	s.reacquire = 0
	s.reacquireAny = 0
	s.shm.Servo().Thaw(s.cfg.HoldoverMaxSlewPPB)
	s.obsHoldExit.Inc()
	s.emit(EventHoldover, "exit")
}

// aggregate implements the paper's Fig. 1 data path: the first instance per
// synchronization interval wins the FTSHMEM gate, refreshes its own-domain
// slot if it is a grandmaster, computes the FTA over the fresh readings,
// updates the validity flags, and feeds the shared PI controller.
func (s *Stack) aggregate(nowPHC float64) {
	if !s.shm.TryAcquireAdjust(nowPHC, float64(s.cfg.SyncInterval)) {
		return
	}
	if s.master != nil && s.master.Running() {
		s.shm.StoreOwnDomain(s.cfg.GMDomain, nowPHC)
	}
	s.readings = s.shm.AppendReadings(s.readings[:0], nowPHC)
	cs, flags, info, err := fta.AggregateInto(s.flags, s.readings, s.cfg.F, s.cfg.ValidityThresholdNS, s.cfg.FlagPolicy)
	s.flags = flags
	s.updateFlags(s.readings, flags)
	if info.Starved {
		s.obsStarved.Inc()
	}
	if err != nil {
		return // too few fresh domains: free-run (or hold over) this interval
	}
	s.obsAggs.Inc()
	s.obsDiscarded.Add(uint64(info.Discarded))
	s.obsDiscardMal.Add(uint64(info.MaliciousDiscarded))
	// The aggregation succeeded, but only a full 2f+1 quorum counts toward
	// the holdover watchdog: the FTA degrades f when domains go stale (a
	// partition leaves this side with too few fresh readings to mask even
	// one Byzantine fault), and running on that reduced evidence for longer
	// than the window is exactly the starvation holdover guards against.
	fullQuorum := info.Used+info.Discarded >= 2*s.cfg.F+1
	if fullQuorum {
		s.lastGoodAgg = s.sched.Now()
		if s.holdover {
			// Re-acquire with hysteresis: only a sustained run of sane
			// full-quorum aggregates thaws the servo, so a flapping
			// partition cannot make it chase transients. A frozen servo
			// never shrinks the offset, though, so a stable quorum whose
			// offsets stay above the threshold must still exit eventually
			// (escape hatch at 4× the streak) — the slew limit then ramps
			// the correction in.
			s.reacquireAny++
			if math.Abs(cs) < s.cfg.ReacquireThresholdNS {
				s.reacquire++
			} else {
				s.reacquire = 0
			}
			if s.reacquire >= s.cfg.ReacquireStableCount ||
				s.reacquireAny >= 4*s.cfg.ReacquireStableCount {
				s.exitHoldover()
			}
		}
	}
	adj, state := s.shm.Servo().Sample(cs, nowPHC)
	s.applyServo(cs, adj, state)
}

func (s *Stack) applyServo(offset, adjPPB float64, state servo.State) {
	if s.cfg.DisableDiscipline {
		return
	}
	switch state {
	case servo.StateJump:
		s.nic.PHC().Step(-offset)
		s.nic.PHC().AdjFreq(adjPPB)
		s.obsServoSteps.Inc()
		s.emit(EventServoStep, fmt.Sprintf("%.0fns", -offset))
	case servo.StateLocked:
		s.nic.PHC().AdjFreq(adjPPB)
	}
}

func (s *Stack) updateFlags(readings []fta.Reading, flags []bool) {
	s.shm.SetFlags(flags)
	changed := len(s.lastFlags) != len(flags)
	if !changed {
		for i := range flags {
			if flags[i] != s.lastFlags[i] {
				changed = true
				break
			}
		}
	}
	if changed {
		s.obsFlagFlips.Inc()
		if s.onEvent != nil {
			detail := ""
			for i, fl := range flags {
				if !fl && readings[i].Fresh {
					detail += fmt.Sprintf("domain %d invalid (offset %.0fns); ", readings[i].Domain, readings[i].OffsetNS)
				}
			}
			s.emit(EventFlagChange, detail)
		}
	}
	s.lastFlags = append(s.lastFlags[:0], flags...)
}

func (s *Stack) emit(kind, detail string) {
	if s.onEvent != nil {
		s.onEvent(Event{Kind: kind, Detail: detail})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
