package gptp

// seqWindow is how far behind the newest two-step Sync a pending entry may
// fall before it is dropped (its FollowUp never came).
const seqWindow = 4

// seqRing holds the per-sequence-number state of a port's pending
// two-step Syncs. Adding a Sync drops every entry more than seqWindow
// behind it, including entries ahead of it (an out-of-order Sync moves
// the window back), so the live entries always lie in [seq−4, seq]
// modulo 2^16. Five consecutive sequence numbers map to distinct slots of
// seq&7, so the ring holds exactly what a map keyed by seq would. It is a
// value: copying it copies the pending state.
type seqRing[V any] [8]struct {
	seq uint16
	ok  bool
	v   V
}

// add makes seq's entry live, drops the entries outside the window ending
// at seq, and returns the entry's value for the caller to fill.
func (r *seqRing[V]) add(seq uint16) *V {
	e := &r[seq&7]
	e.seq, e.ok = seq, true
	for i := range r {
		if r[i].ok && seqDelta(seq, r[i].seq) > seqWindow {
			r[i].ok = false
		}
	}
	return &e.v
}

// get returns seq's live entry, or nil.
func (r *seqRing[V]) get(seq uint16) *V {
	if e := &r[seq&7]; e.ok && e.seq == seq {
		return &e.v
	}
	return nil
}

// remove drops seq's entry.
func (r *seqRing[V]) remove(seq uint16) {
	if e := &r[seq&7]; e.seq == seq {
		e.ok = false
	}
}

// seqDelta computes the forward distance between two uint16 sequence
// numbers with wraparound.
func seqDelta(newer, older uint16) uint16 { return newer - older }
