// Package sim provides the deterministic discrete-event simulation kernel
// that every other substrate (clocks, network, hypervisor) runs on.
//
// All simulated components share a single Scheduler. Time is a monotonically
// increasing nanosecond counter representing ideal "true" time; simulated
// clocks in package clock map true time onto drifting local timescales.
// Events that are scheduled for the same instant fire in FIFO order, which —
// together with the seeded RNG streams in rng.go — makes every run
// bit-for-bit reproducible.
//
// The kernel is allocation-free in steady state: events live inline in a
// growable slab indexed by a hand-rolled 4-ary min-heap (see heap.go), At
// and After hand out compact EventID handles instead of per-event pointers,
// Cancel is an O(1) generation bump with lazy deletion at pop, and fired
// slots recycle through a free list. See DESIGN.md, "Event kernel".
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is an absolute instant on the simulation's ideal timescale,
// in nanoseconds since the simulation epoch.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the instant to a duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as a duration since the simulation epoch.
func (t Time) String() string { return time.Duration(t).String() }

// EventID is a compact handle to a scheduled callback: a slab slot plus a
// generation that invalidates the handle once the event fires or is
// cancelled. The zero EventID is never valid, so it can be stored freely as
// a "no event" sentinel.
type EventID struct {
	slot uint32
	gen  uint32
}

// Valid reports whether the handle was ever issued by a scheduler. It does
// not check whether the event is still pending; Cancel on a fired event is
// simply a no-op.
func (id EventID) Valid() bool { return id.gen != 0 }

// eventSlot is one inline event record. Slots are recycled through the
// scheduler's free list; gen disambiguates incarnations so stale EventIDs
// cannot touch a reused slot.
type eventSlot struct {
	at  Time
	seq uint64
	// schedAt is the simulation instant the schedule call happened at, and
	// cause is the schedAt of the event whose callback made that call (for
	// calls from outside any callback, cause == schedAt). Together they form
	// the causal portion of the firing key (at, schedAt, cause, seq): within
	// one scheduler the extended key orders identically to (at, seq), but it
	// also lets the sharded fabric inject cross-shard deliveries with their
	// sender-side keys (ScheduleKeyedArg) so they interleave with local
	// events exactly where a single-scheduler run would have placed them.
	schedAt Time
	cause   Time
	// Exactly one of fn / afn is set. afn receives arg, letting hot
	// callers (link delivery, bridge egress) schedule with a prebound
	// callback and avoid a per-event closure allocation.
	fn  func()
	afn func(any)
	arg any
	// period > 0 marks a ticker slot: after firing it is pushed back with
	// at += period, reusing the slot, the callback and the EventID.
	period    time.Duration
	gen       uint32
	heapIdx   int32 // position in Scheduler.heap; -1 when not queued
	nextFree  int32
	cancelled bool
}

// ErrStopped is returned by Run when the scheduler was stopped explicitly.
var ErrStopped = errors.New("sim: scheduler stopped")

// Scheduler is a deterministic discrete-event executor. The zero value is
// not usable; create one with NewScheduler.
type Scheduler struct {
	schedulerState
	slab    []eventSlot
	heap    []int32 // slot indices; 4-ary min-heap on (at, seq)
	stopped bool

	// firing/firingSchedAt track the schedule-time key of the event whose
	// callback is currently executing, so schedule() can stamp the causal
	// key of everything that callback schedules. firingCause is that
	// event's own cause key, exposed through SchedKeys as the third
	// mailbox sort key (it is never stamped onto scheduled events).
	firing        bool
	firingSchedAt Time
	firingCause   Time

	// locals holds the Local values of the layers above the kernel. They
	// are not simulation state: Snapshot and Restore leave them alone.
	locals []any
}

// schedulerState is the scheduler's scalar queue state; Snapshot copies it
// whole and copies the slab and heap explicitly.
type schedulerState struct {
	now      Time
	seq      uint64
	freeHead int32 // head of the free-slot list; -1 when empty
	live     int   // queued events that are not cancelled

	// deferOrd numbers this shard's deferred cross-shard sends in issuance
	// order (see NextDeferOrd); single-scheduler runs never touch it.
	deferOrd uint64

	// processed counts events that have fired, for diagnostics.
	processed uint64
	// pastClamps counts At calls that asked for an instant already in the
	// past and were clamped to now — usually a causality bug upstream.
	pastClamps uint64
	// cancels counts effective Cancel calls (stale handles excluded).
	cancels uint64
}

// NewScheduler returns a scheduler positioned at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{schedulerState: schedulerState{freeHead: -1}}
}

// Now reports the current simulation instant.
func (s *Scheduler) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are currently queued (cancelled events
// awaiting lazy removal are not counted).
func (s *Scheduler) Pending() int { return s.live }

// Drained reports whether no live events remain queued.
func (s *Scheduler) Drained() bool { return s.live == 0 }

// PastClamps reports how many times At was asked to schedule in the past
// and clamped the event to "now". A nonzero count usually indicates a
// causality bug in a component; core.System surfaces it at teardown.
func (s *Scheduler) PastClamps() uint64 { return s.pastClamps }

// Cancelled reports how many events were cancelled before firing.
func (s *Scheduler) Cancelled() uint64 { return s.cancels }

// Diagnostics is a point-in-time snapshot of kernel internals, exposed for
// the profiling harness and teardown logging.
type Diagnostics struct {
	Processed  uint64 // events fired
	Cancelled  uint64 // events cancelled before firing
	PastClamps uint64 // At calls clamped to now
	Pending    int    // live queued events
	QueueLen   int    // heap entries including lazily-deleted ones
	SlabSlots  int    // slots ever allocated (high-water mark)
}

// Diag returns kernel diagnostics.
func (s *Scheduler) Diag() Diagnostics {
	return Diagnostics{
		Processed:  s.processed,
		Cancelled:  s.cancels,
		PastClamps: s.pastClamps,
		Pending:    s.live,
		QueueLen:   len(s.heap),
		SlabSlots:  len(s.slab),
	}
}

// alloc pops a slot off the free list, growing the slab only when the list
// is empty; steady-state scheduling therefore never allocates.
func (s *Scheduler) alloc() int32 {
	if s.freeHead >= 0 {
		i := s.freeHead
		s.freeHead = s.slab[i].nextFree
		return i
	}
	s.slab = append(s.slab, eventSlot{gen: 1, heapIdx: -1, nextFree: -1})
	return int32(len(s.slab) - 1)
}

// free recycles a slot whose generation has already been bumped.
func (s *Scheduler) free(i int32) {
	sl := &s.slab[i]
	sl.fn, sl.afn, sl.arg = nil, nil, nil
	sl.period = 0
	sl.cancelled = false
	sl.heapIdx = -1
	sl.nextFree = s.freeHead
	s.freeHead = i
}

// bumpGen invalidates outstanding EventIDs for the slot. Generation 0 is
// reserved for the invalid zero EventID.
func (sl *eventSlot) bumpGen() {
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1
	}
}

// schedule is the shared entry point behind At/After/AtArg/Every.
func (s *Scheduler) schedule(t Time, fn func(), afn func(any), arg any, period time.Duration) EventID {
	cause := s.now
	if s.firing {
		cause = s.firingSchedAt
	}
	return s.scheduleKeyed(t, s.now, cause, fn, afn, arg, period)
}

// scheduleKeyed is schedule with explicit causal keys (cross-shard commits).
func (s *Scheduler) scheduleKeyed(t, schedAt, cause Time, fn func(), afn func(any), arg any, period time.Duration) EventID {
	if t < s.now {
		t = s.now
		s.pastClamps++
	}
	i := s.alloc()
	sl := &s.slab[i]
	sl.at = t
	sl.seq = s.seq
	s.seq++
	sl.schedAt = schedAt
	sl.cause = cause
	sl.fn, sl.afn, sl.arg = fn, afn, arg
	sl.period = period
	s.heapPush(i)
	s.live++
	return EventID{slot: uint32(i), gen: sl.gen}
}

// SchedKeys reports the causal keys a schedule call made right now would
// carry: the current instant, the schedule-time key of the callback being
// fired, and that callback's own cause key (outside any callback, all
// three are the current instant). The sharded fabric captures these at a
// deferred cross-shard send: schedAt and cause are replayed through
// ScheduleKeyedArg on the destination shard, so the delivery sorts against
// that shard's local events exactly as it would have in a single-scheduler
// run, while prevCause only orders the barrier mailbox — it reproduces the
// heap order (at, schedAt, cause, …) of the *sending* events themselves,
// which is the order a single scheduler executed them (and hence inserted
// their deliveries) in.
func (s *Scheduler) SchedKeys() (schedAt, cause, prevCause Time) {
	if s.firing {
		return s.now, s.firingSchedAt, s.firingCause
	}
	return s.now, s.now, s.now
}

// NextDeferOrd issues the next deferred-send ordinal for this shard.
// Boundary links stamp it onto every send they defer, so the fabric's
// barrier commit can reproduce the exact issuance order of same-instant
// sends that left one shard through different boundary links — the order a
// single-scheduler run would have given them by insertion sequence.
func (s *Scheduler) NextDeferOrd() uint64 {
	s.deferOrd++
	return s.deferOrd
}

// ScheduleKeyedArg schedules fn(arg) at instant t carrying an explicit
// causal key captured elsewhere (see SchedKeys). It is the inter-shard
// mailbox primitive: everything else should use At/AtArg, which stamp the
// keys automatically.
func (s *Scheduler) ScheduleKeyedArg(t, schedAt, cause Time, fn func(any), arg any) EventID {
	return s.scheduleKeyed(t, schedAt, cause, nil, fn, arg, 0)
}

// NextEventAt reports the instant of the earliest live queued event. The
// second result is false when the queue is empty.
func (s *Scheduler) NextEventAt() (Time, bool) {
	i, ok := s.peekLive()
	if !ok {
		return 0, false
	}
	return s.slab[i].at, true
}

// SkipTo advances the clock to t without firing anything. It is a
// fabric-internal fast-forward for shards whose next event lies beyond the
// current synchronization window; calling it with a pending event at or
// before t would violate causality, so it panics.
func (s *Scheduler) SkipTo(t Time) {
	if at, ok := s.NextEventAt(); ok && at <= t {
		panic(fmt.Sprintf("sim: SkipTo(%v) past pending event at %v", t, at))
	}
	if t > s.now {
		s.now = t
	}
}

// AdvanceTo advances the clock to t without firing anything, leaving events
// pending at exactly t in the queue — they fire at their scheduled instant
// once execution resumes. The fabric uses it to present shard clocks at the
// control instant tc while the shards' own tc events wait their turn; an
// unfired event strictly before t would violate causality, so it panics.
func (s *Scheduler) AdvanceTo(t Time) {
	if at, ok := s.NextEventAt(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) past pending event at %v", t, at))
	}
	if t > s.now {
		s.now = t
	}
}

// At schedules fn to run at instant t. Scheduling in the past is a
// programming error and is clamped to "now" so that causality is preserved;
// the event still fires and the clamp is counted (see PastClamps).
func (s *Scheduler) At(t Time, fn func()) EventID {
	return s.schedule(t, fn, nil, nil, 0)
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), fn, nil, nil, 0)
}

// AtArg schedules fn(arg) at instant t. Hot paths that would otherwise
// capture state in a fresh closure per event (frame delivery, bridge
// egress) pass a prebound fn and thread their state through arg — boxing a
// pointer into an interface does not allocate, so the call is alloc-free.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) EventID {
	return s.schedule(t, nil, fn, arg, 0)
}

// AfterArg schedules fn(arg) to run d after the current instant.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), nil, fn, arg, 0)
}

// Cancel removes a pending event in O(1): the slot's generation is bumped
// (so the handle dies) and the heap entry is discarded lazily when it
// reaches the top. Cancelling an event that already fired, was already
// cancelled, or is the zero EventID is a no-op.
func (s *Scheduler) Cancel(id EventID) {
	i := int32(id.slot)
	if id.gen == 0 || int(i) >= len(s.slab) {
		return
	}
	sl := &s.slab[i]
	if sl.gen != id.gen || sl.cancelled {
		return
	}
	sl.cancelled = true
	s.cancels++
	sl.bumpGen()
	sl.fn, sl.afn, sl.arg = nil, nil, nil
	if sl.heapIdx >= 0 {
		// Still queued: drop from the live count; the heap entry is
		// reaped at pop. A ticker cancelled from inside its own callback
		// is not queued at this point and was already uncounted.
		s.live--
	}
}

// When reports the instant a pending event is scheduled for.
func (s *Scheduler) When(id EventID) (Time, bool) {
	i := int32(id.slot)
	if id.gen == 0 || int(i) >= len(s.slab) {
		return 0, false
	}
	sl := &s.slab[i]
	if sl.gen != id.gen || sl.heapIdx < 0 {
		return 0, false
	}
	return sl.at, true
}

// peekLive reaps cancelled entries off the heap top and reports the slot of
// the earliest live event, if any.
func (s *Scheduler) peekLive() (int32, bool) {
	for len(s.heap) > 0 {
		i := s.heap[0]
		if !s.slab[i].cancelled {
			return i, true
		}
		s.heapPopTop()
		s.free(i)
	}
	return -1, false
}

// fire pops slot i (already verified live) and runs its callback.
func (s *Scheduler) fire(i int32) {
	s.heapPopTop()
	sl := &s.slab[i]
	s.now = sl.at
	s.processed++
	s.live--
	if sl.period > 0 {
		// Ticker fast path: fire, then push the same slot back with
		// at += period. The callback, slot and EventID are all reused, so
		// a steady ticker schedules with zero allocations. The reschedule
		// happens after fn returns — matching the callback-driven ticker
		// it replaces — so events fn schedules for the same future
		// instant keep their FIFO position ahead of the next tick.
		gen := sl.gen
		fn := sl.fn
		prevFiring, prevSchedAt, prevCause := s.firing, s.firingSchedAt, s.firingCause
		s.firing, s.firingSchedAt, s.firingCause = true, sl.schedAt, sl.cause
		fn()
		s.firing, s.firingSchedAt, s.firingCause = prevFiring, prevSchedAt, prevCause
		sl = &s.slab[i] // fn may have grown the slab
		if sl.cancelled || sl.gen != gen {
			s.free(i) // stopped from within its own callback
			return
		}
		sl.at = sl.at.Add(sl.period)
		sl.seq = s.seq
		s.seq++
		// The re-arm is causally a schedule call made by this tick's
		// callback: scheduled now, caused by the slot's previous key.
		sl.cause = sl.schedAt
		sl.schedAt = s.now
		s.heapPush(i)
		s.live++
		return
	}
	// One-shot: invalidate the handle and recycle the slot before the
	// callback runs, so the callback can immediately reuse it.
	fn, afn, arg := sl.fn, sl.afn, sl.arg
	schedAt, cause := sl.schedAt, sl.cause
	sl.bumpGen()
	s.free(i)
	prevFiring, prevSchedAt, prevCause := s.firing, s.firingSchedAt, s.firingCause
	s.firing, s.firingSchedAt, s.firingCause = true, schedAt, cause
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	s.firing, s.firingSchedAt, s.firingCause = prevFiring, prevSchedAt, prevCause
}

// Step fires the next pending event and reports whether one was available.
func (s *Scheduler) Step() bool {
	i, ok := s.peekLive()
	if !ok {
		return false
	}
	s.fire(i)
	return true
}

// RunUntil executes events in order until the queue is exhausted or the next
// event lies strictly after t. The clock is left at min(t, last event time
// processed); if events remain, Now() is advanced to t so that subsequent
// RunUntil calls continue seamlessly.
func (s *Scheduler) RunUntil(t Time) error {
	for !s.stopped {
		i, ok := s.peekLive()
		if !ok || s.slab[i].at > t {
			break
		}
		s.fire(i)
	}
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	if s.now < t {
		s.now = t
	}
	return nil
}

// RunFor advances the simulation by d from the current instant.
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.RunUntil(s.now.Add(d))
}

// Run executes events until the queue is empty or the scheduler is stopped.
func (s *Scheduler) Run() error {
	for !s.stopped && s.Step() {
	}
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	return nil
}

// Stop causes the currently executing Run/RunUntil to return ErrStopped
// after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Every schedules fn to run periodically with the given period, starting at
// start. It returns a Ticker that can be stopped. The period must be
// positive.
func (s *Scheduler) Every(start Time, period time.Duration, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: non-positive period %v", period)
	}
	id := s.schedule(start, fn, nil, nil, period)
	return &Ticker{sched: s, id: id}, nil
}

// Ticker repeatedly fires a callback with a fixed period until stopped.
// Ticks reuse one event slot in the scheduler, so a running ticker does not
// allocate.
type Ticker struct {
	sched *Scheduler
	id    EventID
}

// Stop cancels future firings. It is safe to call from within the callback
// and safe to call more than once.
func (t *Ticker) Stop() { t.sched.Cancel(t.id) }
