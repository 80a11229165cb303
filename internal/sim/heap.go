package sim

import (
	"math/bits"
	"slices"
)

// Monotone radix queue over slab slots. Every instant the kernel queues is
// at or after the instant it last took off the queue (schedules before
// "now" are clamped), so the keys are monotone integers and a radix heap
// orders them in O(1) amortised per event, against O(log n) sift work with
// a key comparison per level for a binary or 4-ary heap.
//
// Bucket k ≥ 1 holds the events whose instant first differs from base at
// bit k−1, that is bits.Len64(at ^ base) == k; base is the instant of the
// queue's minimum as of the last redistribution, and every queued instant is
// ≥ base. Bucket 0 holds the events at exactly base, kept sorted on the
// full firing key (at, schedAt, cause, seq) and popped from its head. When
// bucket 0 runs dry, the lowest non-empty bucket (a bitmask and one
// TrailingZeros64) is redistributed around its own minimum: each of its
// entries moves to a strictly lower bucket, so an event moves at most 63
// times before it fires, and in practice once or twice.
//
// A peek can move base past "now" (the fabric's window loop and RunUntil's
// stopping test both peek at events they will not fire yet). A later
// schedule below base then lowers base: buckets 0..h−1 merge into bucket h,
// where h = bits.Len64(t ^ base), and every higher bucket stays put (see
// lower). The queue holds each entry's instant inline, so redistribution
// touches slab memory only to order the events that reach bucket 0.

// qent is one queued event: its slab slot and a copy of its instant.
type qent struct {
	at   Time
	slot int32
}

// radixQueue is the kernel's priority queue; the Scheduler methods below
// operate on it because ordering ties and reaping need the slab.
type radixQueue struct {
	base    Time
	mask    uint64 // bit k set iff buckets[k] is non-empty, for k ≥ 1
	head    int    // entries of buckets[0] before head have been popped
	buckets [64][]qent
}

// copyFrom makes q a deep copy of src, reusing q's bucket capacity and
// dropping bucket 0's popped prefix.
func (q *radixQueue) copyFrom(src *radixQueue) {
	q.base, q.mask, q.head = src.base, src.mask, 0
	for k := range q.buckets {
		from := src.buckets[k]
		if k == 0 {
			from = from[src.head:]
		}
		q.buckets[k] = append(q.buckets[k][:0], from...)
	}
}

// len reports the queued entries, lazily-deleted ones included.
func (q *radixQueue) len() int {
	n := len(q.buckets[0]) - q.head
	for m := q.mask; m != 0; m &= m - 1 {
		n += len(q.buckets[bits.TrailingZeros64(m)])
	}
	return n
}

// eventLess orders slots by scheduled instant, then by the causal key
// (schedule instant, causing event's schedule instant), then insertion
// sequence. Within one scheduler the causal components are monotone in seq,
// so the order is identical to the historical (at, seq); they exist so that
// cross-shard deliveries injected with sender-side keys (ScheduleKeyedArg)
// sort against local events the way a single-scheduler run would order
// them. The key is total and unique, so firing order is independent of
// the queue's layout.
func (s *Scheduler) eventLess(a, b int32) bool {
	sa, sb := &s.slab[a], &s.slab[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	if sa.schedAt != sb.schedAt {
		return sa.schedAt < sb.schedAt
	}
	if sa.cause != sb.cause {
		return sa.cause < sb.cause
	}
	return sa.seq < sb.seq
}

// eventCmp is eventLess as a three-way comparison over queue entries.
func (s *Scheduler) eventCmp(a, b qent) int {
	switch {
	case a.slot == b.slot:
		return 0
	case s.eventLess(a.slot, b.slot):
		return -1
	}
	return 1
}

// push queues slot i at its instant.
func (s *Scheduler) push(i int32) {
	sl := &s.slab[i]
	sl.queued = true
	q := &s.q
	if sl.at < q.base {
		s.lower(sl.at)
	}
	e := qent{at: sl.at, slot: i}
	k := bits.Len64(uint64(e.at ^ q.base))
	if k > 0 {
		q.buckets[k] = append(q.buckets[k], e)
		q.mask |= 1 << k
		return
	}
	// Same instant as base: insert in firing-key order. Local schedules
	// arrive in key order, so the append is the common case.
	b := q.buckets[0]
	n := len(b)
	if n == q.head || s.eventLess(b[n-1].slot, i) {
		q.buckets[0] = append(b, e)
		return
	}
	lo, hi := q.head, n-1 // b[hi] sorts after i
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.eventLess(b[mid].slot, i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, qent{})
	copy(b[lo+1:], b[lo:n])
	b[lo] = e
	q.buckets[0] = b
}

// lower moves base down to t, below every queued instant. With
// h = bits.Len64(t ^ base), base has bit h−1 set and t has not, so no
// queued instant (all ≥ base) can differ from base first at bit h−1:
// bucket h is empty. Entries of buckets below h agree with base down to
// bit h−1 and so differ from t first there — they all belong in bucket h.
// Entries of buckets above h differ from base above bit h−1, where t agrees
// with base, and keep their bucket.
func (s *Scheduler) lower(t Time) {
	q := &s.q
	h := bits.Len64(uint64(t ^ q.base))
	dst := append(q.buckets[h], q.buckets[0][q.head:]...)
	q.buckets[0], q.head = q.buckets[0][:0], 0
	low := q.mask & (1<<h - 1)
	for m := low; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		dst = append(dst, q.buckets[k]...)
		q.buckets[k] = q.buckets[k][:0]
	}
	q.mask &^= low
	if len(dst) > 0 {
		q.mask |= 1 << h
	}
	q.buckets[h] = dst
	q.base = t
}

// popHead removes the head of bucket 0 (the caller has read it).
func (s *Scheduler) popHead() {
	q := &s.q
	s.slab[q.buckets[0][q.head].slot].queued = false
	q.head++
	if q.head == len(q.buckets[0]) {
		q.buckets[0], q.head = q.buckets[0][:0], 0
	}
}

// refill redistributes the lowest non-empty bucket around its minimum
// instant, which becomes base; it requires bucket 0 empty and reports
// false when the whole queue is.
func (s *Scheduler) refill() bool {
	q := &s.q
	if q.mask == 0 {
		return false
	}
	k := bits.TrailingZeros64(q.mask)
	b := q.buckets[k]
	m := b[0].at
	for _, e := range b[1:] {
		if e.at < m {
			m = e.at
		}
	}
	q.base = m
	q.buckets[k] = b[:0]
	q.mask &^= 1 << k
	for _, e := range b {
		j := bits.Len64(uint64(e.at ^ m)) // < k: e and m agree from bit k−1 up
		q.buckets[j] = append(q.buckets[j], e)
		q.mask |= 1 << j
	}
	q.mask &^= 1 // bucket 0 is tracked by head and length
	// The ties at m arrive in bucket order, which is key order unless
	// cross-shard commits or earlier merges interleaved them; on sorted
	// input the sort is one linear pass.
	slices.SortFunc(q.buckets[0], s.eventCmp)
	return true
}
