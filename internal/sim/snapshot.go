package sim

// Snapshotter is the contract every stateful simulation component
// implements for the copy-on-fork warm-start engine: Snapshot captures the
// component's mutable state as an opaque value, Restore rewinds the SAME
// component instance to that state in place. Restoring in place (rather
// than rebuilding a copy) is what keeps closures already queued in the
// scheduler valid across a fork: they capture component pointers, and those
// pointers keep pointing at correctly-rewound state. A snapshot may be
// restored any number of times; each Restore must leave the component
// bit-identical to the moment the snapshot was taken.
//
// Components keep their mutable scalars in one embedded, unexported
// xxxState struct and snapshot it by copying the value whole; references
// (maps, slices, nested components) stay outside it and are deep-copied
// explicitly. *Ticker is the only pointer a state struct may hold: the
// scheduler's own Restore revalidates it. See DESIGN.md, "Warm-state
// snapshots".
type Snapshotter interface {
	Snapshot() any
	Restore(snap any)
}

// SnapshotAll snapshots each component in order, for owners that keep an
// ordered list of their stateful parts.
func SnapshotAll(cs []Snapshotter) []any {
	out := make([]any, len(cs))
	for i, c := range cs {
		out[i] = c.Snapshot()
	}
	return out
}

// RestoreAll restores each component from the SnapshotAll result taken
// over the same list.
func RestoreAll(cs []Snapshotter, snaps []any) {
	for i, c := range cs {
		c.Restore(snaps[i])
	}
}

// Cloner is implemented by scheduled-event args that are mutated or
// recycled after they fire (pooled frames, egress jobs). The scheduler
// deep-copies such args once when a snapshot is taken — preserving a
// pristine copy the continuing run can no longer corrupt — and again on
// every Restore, so each fork consumes its own private copy.
type Cloner interface {
	CloneForSnapshot() any
}

// schedulerSnapshot is the scheduler's full queue state: the scalars, the
// event slab (including re-arm descriptors for tickers: at/seq/period per
// slot, not closures re-captured per fork) and the radix queue (buckets,
// run and base).
// Slots referencing Cloner args hold pristine deep copies.
type schedulerSnapshot struct {
	schedulerState
	slab []eventSlot
	q    radixQueue
}

// Snapshot implements Snapshotter. Event callbacks are captured by
// reference: a queued callback is snapshot-safe iff it captures only
// components restored in place or values never mutated after scheduling —
// anything else must go through an AtArg descriptor implementing Cloner
// (see netsim's frame and egress-job descriptors).
func (s *Scheduler) Snapshot() any {
	sn := &schedulerSnapshot{
		schedulerState: s.schedulerState,
		slab:           append([]eventSlot(nil), s.slab...),
	}
	sn.q.copyFrom(&s.q)
	cloneArgs(sn.slab)
	return sn
}

// Restore implements Snapshotter: it rewinds the queue to the snapshot.
// Slot indices and generations are restored verbatim, so EventIDs and
// *Ticker handles issued before the snapshot become valid again even if
// the event fired or was cancelled in the meantime; handles issued after
// the snapshot go stale (their generations are rolled back or reassigned).
func (s *Scheduler) Restore(snap any) {
	sn := snap.(*schedulerSnapshot)
	s.schedulerState = sn.schedulerState
	s.slab = append(s.slab[:0], sn.slab...)
	cloneArgs(s.slab)
	s.q.copyFrom(&sn.q)
	s.stopped = false
}

// cloneArgs replaces every Cloner arg in slab with a private deep copy.
func cloneArgs(slab []eventSlot) {
	for i := range slab {
		if c, ok := slab[i].arg.(Cloner); ok {
			slab[i].arg = c.CloneForSnapshot()
		}
	}
}
