package sim

import "math/bits"

// Monotone radix queue over slab slots, with a sorted run for the near
// term. Every instant the kernel queues is at or after the instant it last
// took off the queue (schedules before "now" are clamped), so the keys are
// monotone integers and a radix heap orders them in O(1) amortised per
// event, against O(log n) sift work with a key comparison per level for a
// binary or 4-ary heap.
//
// Bucket k ≥ 1 holds the events whose instant first differs from base at
// bit k−1, that is bits.Len64(at ^ base) == k; base is at or below the
// queue's minimum, and every queued instant is ≥ base. Bucket 0 is the
// run: it holds, sorted by firing key and popped from its head, every
// event with bits.Len64(at ^ base) < lvl — the events in the aligned
// 2^(lvl−1)-ns block that holds base — and buckets 1..lvl−1 are empty.
// With lvl 0 (no run) bucket 0 holds the events at exactly base, which is
// the plain radix heap.
//
// When the run is empty, refill takes the lowest non-empty bucket k (a
// bitmask and one TrailingZeros64). A bucket of at most runMax entries
// is sorted in place and becomes the run, with lvl = k and base its
// minimum: its entries are exactly those of the block of bucket k, so no
// entry moves bucket. A larger bucket is redistributed around its own
// minimum as in a plain radix heap: each entry moves to a strictly lower
// bucket, so an event moves at most 63 times before it fires, and lvl
// drops to 0. Most buckets the kernel refills hold a handful of entries,
// so most events are sorted once into a run instead of being
// redistributed bucket by bucket. A push into the run's block is inserted
// in place, found by a scan back from the tail; a run that grows past
// runCap entries spills: it rebases on its minimum, returns every later
// entry to its radix bucket (all below lvl), and lvl drops to 0.
//
// A peek can move base past "now" (RunUntil's stopping test peeks at an
// event it will not fire yet). A later schedule below base then lowers
// base to its instant t. With h = bits.Len64(t ^ base) < lvl, t is in the
// run's block and only base moves. Otherwise buckets 0..h−1 merge into
// bucket h, every higher bucket stays put (see lower), and lvl drops to 0.
// The queue holds each entry's instant inline, so no queue operation
// touches slab memory.
//
// The firing key is (at, seq), seq being the insertion order: same-instant
// events fire in the order they were scheduled. The queue keeps it without
// storing seq. Events with equal instants always share a bucket, since the
// bucket index and run membership are functions of the instant. A push
// appends the newest event to its bucket, or inserts it into the run after
// every entry at its instant; the run's sort is stable; refill, spill and
// lower move entries in order. So every bucket holds its same-instant
// events in insertion order, and the run holds its entries in firing
// order.

// runMax is the largest bucket refill sorts into a run instead of
// redistributing, and runCap the length past which a run spills back into
// the radix buckets. Both were chosen by measurement on the paper mesh and
// an 8-site fabric: sorting a much larger bucket costs more than the
// redistribution it saves, and an uncapped run can grow long enough that
// its inserts cost more than the radix pushes they replace.
const (
	runMax = 8
	runCap = 32
)

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
	lvl     int    // buckets[0] holds the entries with bits.Len64(at^base) < lvl
	buckets [64][]qent
}

// copyFrom makes q a deep copy of src, reusing q's bucket capacity and
// dropping bucket 0's popped prefix.
func (q *radixQueue) copyFrom(src *radixQueue) {
	q.base, q.mask, q.head, q.lvl = src.base, src.mask, 0, src.lvl
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
	if k < q.lvl {
		q.insert(qent{at: sl.at, slot: i})
		return
	}
	q.buckets[k] = append(q.buckets[k], qent{at: sl.at, slot: i})
	if k > 0 {
		q.mask |= 1 << k
	}
}

// insert places e in the run after every entry at or before its instant,
// and spills the run if that makes it longer than runCap.
func (q *radixQueue) insert(e qent) {
	b := append(q.buckets[0], e)
	p := len(b) - 1
	for ; p > q.head && b[p-1].at > e.at; p-- {
		b[p] = b[p-1]
	}
	b[p] = e
	q.buckets[0] = b
	if len(b)-q.head > runCap {
		q.spill()
	}
}

// spill ends the run: base rises to the run's minimum, which keeps every
// higher bucket's index (the minimum is in the run's block), the entries at
// that instant stay in bucket 0, and every later entry goes to its bucket
// below lvl, in run order.
func (q *radixQueue) spill() {
	b := q.buckets[0][q.head:]
	q.base = b[0].at
	n := 1
	for n < len(b) && b[n].at == q.base {
		n++
	}
	for _, e := range b[n:] {
		j := bits.Len64(uint64(e.at ^ q.base))
		q.buckets[j] = append(q.buckets[j], e)
		q.mask |= 1 << j
	}
	q.buckets[0], q.head, q.lvl = append(q.buckets[0][:0], b[:n]...), 0, 0
}

// lower moves base down to t, below every queued instant. With
// h = bits.Len64(t ^ base), base has bit h−1 set and t has not, so no
// queued instant (all ≥ base) can differ from base first at bit h−1:
// bucket h is empty. Entries of buckets above h differ from base above bit
// h−1, where t agrees with base, and keep their bucket. If h < lvl, t is in
// the run's block, which is unchanged, and nothing else moves. Otherwise
// the entries of the run and of buckets below h agree with base down to
// bit h−1 and so differ from t first there — they all belong in bucket h.
func (q *radixQueue) lower(t Time) {
	h := bits.Len64(uint64(t ^ q.base))
	if h < q.lvl {
		q.base = t
		return
	}
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
	q.base, q.lvl = t, 0
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

// refill refills the empty bucket 0 from the lowest non-empty bucket,
// whose minimum instant becomes base: a short bucket becomes the run, a
// long one is redistributed. It reports false when the whole queue is
// empty.
func (q *radixQueue) refill() bool {
	if q.mask == 0 {
		return false
	}
	k := bits.TrailingZeros64(q.mask)
	b := q.buckets[k]
	if len(b) <= runMax {
		// Stable insertion sort by instant: equal instants keep their
		// insertion order.
		for i := 1; i < len(b); i++ {
			e, j := b[i], i
			for ; j > 0 && b[j-1].at > e.at; j-- {
				b[j] = b[j-1]
			}
			b[j] = e
		}
		q.buckets[0], q.buckets[k] = b, q.buckets[0][:0]
		q.mask &^= 1 << k
		q.base, q.lvl = b[0].at, k
		return true
	}
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
	q.lvl = 0
	return true
}
