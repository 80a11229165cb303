package sim

// Conservative parallel discrete-event fabric (PDES). A Fabric owns one
// Scheduler per shard plus a shard-less control scheduler, and advances all
// of them through barrier-separated time windows:
//
//	              lookahead L = min cross-shard link delay
//	          ┌────────────┐┌────────────┐┌──────────┐
//	 shard 0  │ events ≤ W ││ events ≤ W'││   ...    │
//	 shard 1  │ events ≤ W ││ events ≤ W'││   ...    │   (parallel)
//	          └────────────┴┴────────────┴┴──────────┘
//	           barrier: flush │ barrier: flush │ ...
//	                 mailboxes, fire control events
//
// Within a window shards run concurrently and touch only shard-local state;
// frames crossing a shard boundary are deferred into per-link outboxes
// (never scheduled directly into a foreign shard). The window end W is
// chosen so that no deferred send can require delivery inside the window:
// with e the earliest pending event anywhere, nothing can be transmitted
// before e, so every cross-shard delivery lands at ≥ e + L and the window
// may safely extend to e + L − 1.
//
// At each barrier the fabric drains all boundary outboxes, sorts the
// deferred sends by their causal keys (send instant, sender's schedule-time
// key, then the source shard's issuance ordinal, then boundary registration
// order), and commits them one by one in
// that fixed order. Commit replays the sender-side randomness (loss, jitter)
// in per-link chronological order and schedules the delivery into the
// destination shard via ScheduleKeyedArg, carrying the sender-side causal
// key — so the delivery interleaves with the destination's local events
// exactly where a single-scheduler run would have placed it. This is what
// keeps golden digests bit-identical at every shard count.
//
// Control events (chaos plans, fault injectors, driver At calls) live on the
// control scheduler and fire between windows: shards first execute every
// event strictly before tc, then have their clocks advanced to tc with
// their own tc events still pending, and only then does the control event
// fire. A control event at tc therefore precedes shard events at tc and
// observes (and schedules against) shard clocks reading exactly tc — which
// matches the single-scheduler order because control callbacks carry older
// insertion sequences than same-instant protocol re-arms.
//
// The per-window machinery itself is kept off the hot path three ways
// (fabric_worker.go holds the first):
//
//   - Shard execution is dispatched to per-shard worker goroutines that
//     live for one RunUntil call, over a spin-then-park barrier that keeps
//     them polling between close dispatches, instead of spawning a
//     goroutine per window; a deterministic serial fast path runs the busy
//     shards inline on the coordinator when parallelism cannot pay: with
//     GOMAXPROCS 1, or a single busy shard. Both paths execute the same
//     events against the same state, so the choice is invisible to every
//     determinism surface.
//   - The lookahead is cached: the O(boundaries) MinDelay rescan happens
//     only after a boundary reports, through the hook NewFabric binds, a
//     delay mutation (chaos override, WAN drift step, attack install,
//     snapshot restore) that could change its MinDelay.
//   - flush visits only boundaries that registered into the dirty list on
//     their first deferred append since the previous barrier; a barrier
//     with no captured sends skips the sort-and-commit path entirely.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Deferred is one cross-shard send captured in a boundary outbox, waiting
// for the next barrier to be committed in globally sorted order.
type Deferred struct {
	// Key1 is the send instant; Key2 the sender event's schedule-time key;
	// Key3 the sender event's own cause key (see Scheduler.SchedKeys).
	// (Key1, Key2, Key3) is the heap key prefix of the *sending* event, so
	// sorting on it reproduces the order a single scheduler executed the
	// senders in — the order it would have inserted the deliveries in.
	// Only Key1 and Key2 are replayed onto the delivery event.
	Key1, Key2, Key3 Time
	// Ord is the source shard's deferred-send issuance ordinal
	// (Scheduler.NextDeferOrd): it orders key-tied sends that left one
	// shard by the order the sending callbacks issued them — the
	// single-scheduler insertion order. Ords from different source shards
	// are independent counters; Rank (the boundary's registration order in
	// the fabric) and Dir break those remaining cross-shard ties
	// deterministically.
	Ord       uint64
	Rank, Dir int
	// Payload is the in-flight unit (a netsim frame), opaque to the fabric.
	Payload any
	// By commits the send on the destination shard.
	By Committer
}

// Committer commits a deferred cross-shard send at a barrier.
type Committer interface {
	// CommitDeferred replays the send: sender-side bookkeeping and
	// randomness first (loss decision, jitter draw, FIFO clamp), then the
	// delivery scheduled into the destination shard with the carried keys.
	CommitDeferred(dir int, payload any, key1, key2 Time)
}

// Boundary is a cross-shard conduit registered with the fabric — in
// practice a netsim link whose endpoints live in different shards.
type Boundary interface {
	Committer
	// MinDelay is a lower bound on the sender-to-receiver delay of any
	// send committed from now on (jitter floor plus current overrides);
	// the fabric's lookahead is the minimum over all boundaries.
	MinDelay() time.Duration
	// AppendDeferred appends the boundary's pending sends to buf (leaving
	// Rank zero; the fabric stamps it) and clears the outboxes.
	AppendDeferred(buf []Deferred) []Deferred
	// BindFabric installs the fabric-side hooks; NewFabric calls it once
	// per registered boundary.
	//
	// markDirty must be called (at least) on the first send deferred after
	// a barrier — before or after appending it — so the fabric knows to
	// visit this boundary at the next flush. It is safe to call
	// concurrently from shard goroutines and is idempotent within a
	// window, so "call when the per-direction outbox transitions from
	// empty" is the intended (and cheapest) protocol.
	//
	// invalidateLookahead must be called after any mutation that can
	// change MinDelay's value (delay overrides, WAN drift steps, attack
	// hooks, snapshot restores). It may only be called while shards are
	// paused — from control-scheduler callbacks, barrier commits, or
	// driver code between RunUntil calls — never from a shard callback.
	BindFabric(markDirty, invalidateLookahead func())
}

// FabricStats are cumulative fabric-level counters, sampled by the obs
// layer. BarrierWait and WorkerParks depend on wall-clock timing — and
// SerialWindows on GOMAXPROCS — so all three are excluded from any
// determinism surface.
type FabricStats struct {
	Windows       uint64 // barrier-separated execution windows run
	ControlRounds uint64 // control-scheduler turns fired between windows
	Committed     uint64 // cross-shard sends committed through mailboxes
	BarrierWaitNS uint64 // total wall ns the coordinator waited on shards
	LookaheadNS   int64  // last computed lookahead window size

	SerialWindows    uint64 // windows run inline on the coordinator (no worker dispatch)
	FlushesSkipped   uint64 // barriers with no captured sends: flush was a no-op
	LookaheadRescans uint64 // O(boundaries) MinDelay rescans actually performed
	WorkerParks      uint64 // window dispatches that had to wake a parked worker
}

// Fabric coordinates sharded execution. It is driven from a single
// goroutine (RunUntil); shard parallelism is internal.
type Fabric struct {
	shards  []*Scheduler
	control *Scheduler
	bounds  []Boundary

	now   Time
	buf   []Deferred
	busy  []int // indices into shards, reused across windows
	stats FabricStats

	// hooks is what the bound boundaries write; lookCached is valid while
	// hooks.lookStale is false.
	hooks      *fabricHooks
	lookCached Time

	// Shard workers of the running RunUntil call (fabric_worker.go),
	// started lazily by its first parallel window; nil between calls.
	// maxprocs is GOMAXPROCS as read at the start of that call.
	// spinBudget is the barrier's spinBudget; tests shorten it.
	group      *workerGroup
	maxprocs   int
	spinBudget time.Duration

	// ForceParallel bypasses every serial fast-path heuristic and routes
	// each multi-shard-capable window through the worker barrier, even on
	// a single core. Both paths produce bit-identical simulations; this is
	// a hook for determinism tests and barrier stress tests, not a tuning
	// knob.
	ForceParallel bool

	// BarrierObserver, when set, receives the wall-clock nanoseconds the
	// coordinator spent waiting at each parallel barrier (obs histogram
	// hook).
	BarrierObserver func(ns float64)
}

// NewFabric assembles a fabric over per-shard schedulers, a control
// scheduler (which must not be one of the shards) and the registered
// cross-shard boundaries, binding every boundary to the fabric's dirty list
// and lookahead cache.
func NewFabric(shards []*Scheduler, control *Scheduler, bounds []Boundary) *Fabric {
	h := &fabricHooks{
		dirtyFlags: make([]atomic.Uint32, len(bounds)),
		dirtyList:  make([]int32, len(bounds)),
		lookStale:  true,
	}
	for rank, b := range bounds {
		rank := rank
		b.BindFabric(func() { h.markDirty(rank) }, h.invalidateLookahead)
	}
	return &Fabric{
		shards:     shards,
		control:    control,
		bounds:     bounds,
		hooks:      h,
		spinBudget: spinBudget,
	}
}

// fabricHooks is the state behind the BindFabric hooks, kept apart from the
// Fabric so that boundaries (reachable from the workers) never reach it.
// dirtyFlags[rank] is CAS-claimed by the first markDirty within a window,
// and the claimer publishes rank into dirtyList[dirtyN++]. The coordinator
// drains and resets both at the barrier, which orders the plain slice
// writes of the shard goroutines.
type fabricHooks struct {
	dirtyFlags []atomic.Uint32
	dirtyList  []int32
	dirtyN     atomic.Int32
	lookStale  bool
}

// Now reports the fabric's committed instant: every shard has processed all
// events up to and including it.
func (f *Fabric) Now() Time { return f.now }

// Stats returns the cumulative fabric counters.
func (f *Fabric) Stats() FabricStats { return f.stats }

// Resync realigns the fabric clock with its shards after an external
// restore (warm-start fork). Valid only at driver time, when every shard
// has been restored to the same instant and all outboxes are empty. The
// lookahead cache is invalidated: the restore may have rewritten delay
// state without going through the bound mutators.
func (f *Fabric) Resync() {
	f.now = f.shards[0].Now()
	f.hooks.invalidateLookahead()
}

// invalidateLookahead is the BindFabric lookahead hook: it marks the cached
// lookahead stale, forcing an O(boundaries) MinDelay rescan before the next
// window. It may only be called while shards are paused.
func (h *fabricHooks) invalidateLookahead() { h.lookStale = true }

// markDirty is the BindFabric dirty hook for boundary rank: the first call
// within a window claims the flag and publishes the rank to the dirty
// list; subsequent calls (same or other direction, any shard) are no-ops
// until flush resets the flag.
func (h *fabricHooks) markDirty(rank int) {
	if h.dirtyFlags[rank].CompareAndSwap(0, 1) {
		h.dirtyList[h.dirtyN.Add(1)-1] = int32(rank)
	}
}

// lookahead returns the current safe window extension: the minimum
// cross-shard delay over all boundaries, at least 1 ns so windows always
// make progress. The value is cached; the rescan runs only after an
// invalidation (chaos delay overrides, WAN drift steps, attack installs
// and snapshot restores all invalidate through the BindFabric hook, so
// they still narrow or widen the window from the next barrier on).
func (f *Fabric) lookahead() Time {
	if !f.hooks.lookStale {
		return f.lookCached
	}
	f.hooks.lookStale = false
	f.stats.LookaheadRescans++
	if len(f.bounds) == 0 {
		f.lookCached = Time(1<<62 - 1)
		f.stats.LookaheadNS = int64(f.lookCached)
		return f.lookCached
	}
	min := f.bounds[0].MinDelay()
	for _, b := range f.bounds[1:] {
		if d := b.MinDelay(); d < min {
			min = d
		}
	}
	if min < 1 {
		min = 1
	}
	f.stats.LookaheadNS = int64(min)
	f.lookCached = Time(min)
	return f.lookCached
}

// flush drains the boundary outboxes that captured sends since the last
// barrier — the self-registered dirty list — and commits the deferred sends
// in the fixed global order (Key1, Key2, Key3, Ord, Rank, Dir). A barrier
// where no boundary captured anything returns without visiting a single
// boundary. Runs single-threaded at barriers, while all shards are paused.
func (f *Fabric) flush() {
	h := f.hooks
	n := int(h.dirtyN.Load())
	if n == 0 {
		f.stats.FlushesSkipped++
		return
	}
	buf := f.buf[:0]
	for _, r := range h.dirtyList[:n] {
		h.dirtyFlags[r].Store(0)
		start := len(buf)
		buf = f.bounds[r].AppendDeferred(buf)
		for i := start; i < len(buf); i++ {
			buf[i].Rank = int(r)
		}
	}
	h.dirtyN.Store(0)
	if len(buf) > 1 {
		sortDeferred(buf)
	}
	for i := range buf {
		d := &buf[i]
		d.By.CommitDeferred(d.Dir, d.Payload, d.Key1, d.Key2)
		d.Payload, d.By = nil, nil
	}
	f.stats.Committed += uint64(len(buf))
	f.buf = buf[:0]
}

// sortDeferred orders deferred sends by (Key1, Key2, Key3, Ord, Rank, Dir),
// a hand-rolled insertion/shell hybrid: barriers usually carry a handful of
// sends, and sort.Slice's closure allocates on a path run tens of thousands
// of times per simulated second. The key is total over distinct sends (Ord
// is unique per source shard; Rank and Dir separate the rest), so the
// unstable gap passes cannot reorder equals — the drain order of the dirty
// list never shows through.
func sortDeferred(d []Deferred) {
	for gap := len(d) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(d); i++ {
			v := d[i]
			j := i
			for ; j >= gap && deferredLess(&v, &d[j-gap]); j -= gap {
				d[j] = d[j-gap]
			}
			d[j] = v
		}
	}
}

func deferredLess(a, b *Deferred) bool {
	if a.Key1 != b.Key1 {
		return a.Key1 < b.Key1
	}
	if a.Key2 != b.Key2 {
		return a.Key2 < b.Key2
	}
	if a.Key3 != b.Key3 {
		return a.Key3 < b.Key3
	}
	if a.Ord != b.Ord {
		return a.Ord < b.Ord
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Dir < b.Dir
}

// runWindow advances every shard to end: shards with pending work in the
// window run concurrently on the workers, idle shards fast-forward inline.
// A deterministic serial fast path executes the busy shards in shard order
// on the coordinator when parallelism cannot pay: GOMAXPROCS 1, or a lone
// busy shard. Both paths fire the same events against the same state, so
// the choice never reaches a determinism surface. Returns the first busy
// shard's error in shard order (ErrStopped propagates); every busy shard
// finishes its window either way.
func (f *Fabric) runWindow(end Time) error {
	busy := f.busy[:0]
	for i, sc := range f.shards {
		if at, ok := sc.NextEventAt(); ok && at <= end {
			busy = append(busy, i)
		} else {
			sc.SkipTo(end)
		}
	}
	f.busy = busy // keep the backing array for the next window
	f.stats.Windows++
	if len(busy) == 0 {
		return nil
	}
	if !f.ForceParallel && (f.maxprocs == 1 || len(busy) == 1) {
		f.stats.SerialWindows++
		var firstErr error
		for _, i := range busy {
			if err := f.shards[i].RunUntil(end); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return f.runWindowParallel(busy, end)
}

// minShardNext reports the earliest pending event across all shards.
func (f *Fabric) minShardNext() (Time, bool) {
	var min Time
	ok := false
	for _, sc := range f.shards {
		if at, have := sc.NextEventAt(); have && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// advanceAll fast-forwards every shard and the control scheduler to t
// (no events pending at or before t anywhere).
func (f *Fabric) advanceAll(t Time) error {
	for _, sc := range f.shards {
		sc.SkipTo(t)
	}
	if err := f.control.RunUntil(t); err != nil {
		return err
	}
	f.now = t
	return nil
}

// RunUntil advances the whole fabric to absolute instant target, windowing
// shard execution and firing control events at the barriers. A target
// behind the committed instant is rejected: the fabric cannot rewind, and
// silently treating it as a no-op would hide driver arithmetic bugs. Any
// shard workers the call started have exited by the time it returns.
func (f *Fabric) RunUntil(target Time) error {
	if target < f.now {
		return fmt.Errorf("sim: fabric RunUntil(%v) behind committed instant %v", target, f.now)
	}
	f.maxprocs = runtime.GOMAXPROCS(0)
	defer f.stopWorkers()
	for {
		e, haveShard := f.minShardNext()
		tc, haveCtl := f.control.NextEventAt()
		if !haveShard && !haveCtl {
			return f.advanceAll(target)
		}
		if !haveShard {
			e = tc
		}
		if !haveCtl {
			tc = target + 1
		}
		next := e
		if tc < next {
			next = tc
		}
		if next > target {
			return f.advanceAll(target)
		}
		if haveCtl && tc <= e {
			// Control turn: run shard events strictly before the control
			// instant, then present every shard clock at tc with the
			// shards' own tc events still pending (control precedes shard
			// events at the same instant). A control callback therefore
			// reads and schedules against shard time tc, exactly as in a
			// single-scheduler run — no off-by-one staleness.
			if tc-1 > f.now {
				if err := f.runWindow(tc - 1); err != nil {
					return err
				}
				f.flush()
				f.now = tc - 1
			}
			for _, sc := range f.shards {
				sc.AdvanceTo(tc)
			}
			if err := f.control.RunUntil(tc); err != nil {
				return err
			}
			// Control callbacks normally mutate component state directly;
			// flush again in case one pushed a boundary send.
			f.flush()
			f.stats.ControlRounds++
			continue
		}
		// Shard turn: events exist strictly before the next control event.
		end := e + f.lookahead() - 1
		if end > target {
			end = target
		}
		if haveCtl && end > tc-1 {
			end = tc - 1
		}
		if err := f.runWindow(end); err != nil {
			return err
		}
		f.flush()
		f.now = end
	}
}

// RunFor advances the fabric by d from its committed instant.
func (f *Fabric) RunFor(d time.Duration) error {
	return f.RunUntil(f.now.Add(d))
}
