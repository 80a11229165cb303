// Package sim provides the deterministic discrete-event simulation kernel
// that every other substrate (clocks, network, hypervisor) runs on.
//
// All simulated components share a single Scheduler. Time is a monotonically
// increasing nanosecond counter representing ideal "true" time; simulated
// clocks in package clock map true time onto drifting local timescales.
// Events that are scheduled for the same instant fire in FIFO order, which —
// together with the seeded random streams in rng.go — makes every run
// bit-for-bit reproducible. Each component draws from its own *Stream,
// which yields the stock math/rand sequence of its derived seed through
// math/rand's own draw algorithms, with no interface dispatch.
//
// The kernel is allocation-free in steady state: events live inline in a
// growable slab ordered by a monotone radix queue whose near-term events
// sit in one sorted run (see heap.go), At and After hand out compact
// EventID handles instead of per-event pointers, Cancel is an O(1)
// generation bump with lazy deletion at pop, and fired slots recycle
// through a free list. See DESIGN.md, "Event kernel".
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
	// at is the firing instant. Same-instant events fire in the order they
	// were scheduled (a ticker re-arm counts as scheduled when it re-arms):
	// the firing key is (at, seq) for an insertion counter seq, which the
	// queue keeps without storing it (see heap.go).
	at Time
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
	nextFree  int32
	queued    bool // in the queue (cancelled entries stay until reaped)
	cancelled bool
}

// ErrStopped is returned by Run when the scheduler was stopped explicitly.
var ErrStopped = errors.New("sim: scheduler stopped")

// Scheduler is a deterministic discrete-event executor. The zero value is
// not usable; create one with NewScheduler.
type Scheduler struct {
	schedulerState
	slab    []eventSlot
	q       radixQueue
	stopped bool

	// locals holds the Local values of the layers above the kernel. They
	// are not simulation state: Snapshot and Restore leave them alone.
	locals []any
}

// schedulerState is the scheduler's scalar queue state; Snapshot copies it
// whole and copies the slab and queue explicitly.
type schedulerState struct {
	now      Time
	freeHead int32 // head of the free-slot list; -1 when empty
	live     int   // queued events that are not cancelled

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
	QueueLen   int    // queue entries including lazily-deleted ones
	SlabSlots  int    // slots ever allocated (high-water mark)
}

// Diag returns kernel diagnostics.
func (s *Scheduler) Diag() Diagnostics {
	return Diagnostics{
		Processed:  s.processed,
		Cancelled:  s.cancels,
		PastClamps: s.pastClamps,
		Pending:    s.live,
		QueueLen:   s.q.len(),
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
	s.slab = append(s.slab, eventSlot{gen: 1, nextFree: -1})
	return int32(len(s.slab) - 1)
}

// free recycles a slot whose generation has already been bumped.
func (s *Scheduler) free(i int32) {
	sl := &s.slab[i]
	sl.fn, sl.afn, sl.arg = nil, nil, nil
	sl.period = 0
	sl.cancelled = false
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
	if t < s.now {
		t = s.now
		s.pastClamps++
	}
	i := s.alloc()
	sl := &s.slab[i]
	sl.at = t
	sl.fn, sl.afn, sl.arg = fn, afn, arg
	sl.period = period
	s.push(i)
	s.live++
	return EventID{slot: uint32(i), gen: sl.gen}
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
// (so the handle dies) and the queue entry is discarded lazily when it
// reaches the front. Cancelling an event that already fired, was already
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
	if sl.queued {
		// Still queued: drop from the live count; the queue entry is
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
	if sl.gen != id.gen || !sl.queued {
		return 0, false
	}
	return sl.at, true
}

// peekLive reaps cancelled entries off the queue front and reports the slot
// of the earliest live event, if any; that slot is then the head of bucket
// 0, which is what fire pops.
func (s *Scheduler) peekLive() (int32, bool) {
	for q := &s.q; ; {
		if q.head < len(q.buckets[0]) {
			i := q.buckets[0][q.head].slot
			if !s.slab[i].cancelled {
				return i, true
			}
			s.popHead()
			s.free(i)
			continue
		}
		if !q.refill() {
			return -1, false
		}
	}
}

// fire pops slot i (the live event peekLive just reported) and runs its
// callback.
func (s *Scheduler) fire(i int32) {
	s.popHead()
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
		sl.fn()
		sl = &s.slab[i] // fn may have grown the slab
		if sl.cancelled || sl.gen != gen {
			s.free(i) // stopped from within its own callback
			return
		}
		sl.at = sl.at.Add(sl.period)
		s.push(i)
		s.live++
		return
	}
	// One-shot: invalidate the handle and recycle the slot before the
	// callback runs, so the callback can immediately reuse it.
	fn, afn, arg := sl.fn, sl.afn, sl.arg
	sl.bumpGen()
	s.free(i)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
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

// FabricStats is kept only for bench/, which reads these counters of the
// sharded kernel this package no longer has; they are always zero.
type FabricStats struct {
	Windows, SerialWindows, FlushesSkipped, Committed uint64
	BarrierWaitNS, LookaheadRescans                   uint64
}
