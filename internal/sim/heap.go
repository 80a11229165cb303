package sim

import "math/bits"

// Monotone radix queue over slab slots. Every instant the kernel queues is
// at or after the instant it last took off the queue (schedules before
// "now" are clamped), so the keys are monotone integers and a radix heap
// orders them in O(1) amortised per event, against O(log n) sift work with
// a key comparison per level for a binary or 4-ary heap.
//
// Bucket k ≥ 1 holds the events whose instant first differs from base at
// bit k−1, that is bits.Len64(at ^ base) == k; base is the instant of the
// queue's minimum as of the last redistribution, and every queued instant is
// ≥ base. Bucket 0 holds the events at exactly base and is popped from its
// head. When bucket 0 runs dry, the lowest non-empty bucket (a bitmask and
// one TrailingZeros64) is redistributed around its own minimum: each of its
// entries moves to a strictly lower bucket, so an event moves at most 63
// times before it fires, and in practice once or twice.
//
// A peek can move base past "now" (RunUntil's stopping test peeks at an
// event it will not fire yet). A later schedule below base then lowers
// base: buckets 0..h−1 merge into bucket h, where h = bits.Len64(t ^ base),
// and every higher bucket stays put (see lower). The queue holds each
// entry's instant inline, so redistribution never touches slab memory.
//
// The firing key is (at, seq), seq being the insertion order: same-instant
// events fire in the order they were scheduled. The queue keeps it without
// a comparison. Events with equal instants always share a bucket, since
// the bucket index is a function of the instant; a push appends the newest
// event, and refill and lower move entries in order. So every bucket holds
// its same-instant events in insertion order, and bucket 0 in firing order.

// qent is one queued event: its slab slot and a copy of its instant.
type qent struct {
	at   Time
	slot int32
}

// radixQueue is the kernel's priority queue. push and popHead are
// Scheduler methods because they maintain the slab's queued flags.
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

// push queues slot i at its instant.
func (s *Scheduler) push(i int32) {
	sl := &s.slab[i]
	sl.queued = true
	q := &s.q
	if sl.at < q.base {
		q.lower(sl.at)
	}
	k := bits.Len64(uint64(sl.at ^ q.base))
	q.buckets[k] = append(q.buckets[k], qent{at: sl.at, slot: i})
	if k > 0 {
		q.mask |= 1 << k
	}
}

// lower moves base down to t, below every queued instant. With
// h = bits.Len64(t ^ base), base has bit h−1 set and t has not, so no
// queued instant (all ≥ base) can differ from base first at bit h−1:
// bucket h is empty. Entries of buckets below h agree with base down to
// bit h−1 and so differ from t first there — they all belong in bucket h.
// Entries of buckets above h differ from base above bit h−1, where t agrees
// with base, and keep their bucket.
func (q *radixQueue) lower(t Time) {
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
func (q *radixQueue) refill() bool {
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
	return true
}
