package sim

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// --- edge cases the zero-allocation kernel must preserve ---

func TestCancelInsideCallback(t *testing.T) {
	// The first event at t=100 cancels both a same-instant event queued
	// behind it and a later event; neither may fire.
	s := NewScheduler()
	var idSame, idLater EventID
	var same, later bool
	s.At(100, func() {
		s.Cancel(idSame)
		s.Cancel(idLater)
	})
	idSame = s.At(100, func() { same = true })
	idLater = s.At(200, func() { later = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if same || later {
		t.Fatalf("events cancelled from inside a callback fired: same=%v later=%v", same, later)
	}
	if !s.Drained() {
		t.Fatal("cancelled events left the scheduler undrained")
	}
}

func TestCancelAlreadyFired(t *testing.T) {
	s := NewScheduler()
	fired := 0
	id := s.At(10, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	s.Cancel(id) // no-op: already fired
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	// The fired slot has been recycled; a new event may occupy it. The
	// stale handle must not be able to kill the new tenant.
	fresh := false
	s.At(20, func() { fresh = true })
	s.Cancel(id)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fresh {
		t.Fatal("stale EventID cancelled a recycled slot's new event")
	}
}

func TestCancelZeroEventID(t *testing.T) {
	s := NewScheduler()
	s.Cancel(EventID{}) // must be a safe no-op
	if (EventID{}).Valid() {
		t.Fatal("zero EventID reports valid")
	}
	id := s.At(1, func() {})
	if !id.Valid() {
		t.Fatal("issued EventID reports invalid")
	}
}

func TestTickerStopInsideOwnTickThenSlotReuse(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick *Ticker
	tick, err := s.Every(0, 10*time.Nanosecond, func() {
		count++
		if count == 2 {
			tick.Stop()
			tick.Stop() // double stop from inside the tick is safe
		}
	})
	if err != nil {
		t.Fatalf("every: %v", err)
	}
	// Events that outlive the ticker must be unaffected by its slot being
	// recycled underneath them.
	survived := false
	s.At(1000, func() { survived = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-tick stop, want 2", count)
	}
	if !survived {
		t.Fatal("unrelated event lost")
	}
	if !s.Drained() {
		t.Fatal("scheduler not drained after run")
	}
}

func TestTickerSlotReuseKeepsFIFOWithCallbackEvents(t *testing.T) {
	// A ticker's next tick is rescheduled after its callback runs, so an
	// event the callback schedules for exactly one period ahead must fire
	// before the next tick (it received the smaller sequence number). This
	// pins the old callback-driven ticker's ordering.
	s := NewScheduler()
	var order []string
	ticks := 0
	tick, err := s.Every(10, 10*time.Nanosecond, func() {
		ticks++
		order = append(order, "tick")
		if ticks == 1 {
			s.After(10*time.Nanosecond, func() { order = append(order, "cb") })
		}
		if ticks == 3 {
			order = append(order, "stop")
		}
	})
	if err != nil {
		t.Fatalf("every: %v", err)
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatalf("run: %v", err)
	}
	tick.Stop()
	want := []string{"tick", "cb", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterleavedSameInstantFIFOWithCancels(t *testing.T) {
	s := NewScheduler()
	var got []int
	ids := make([]EventID, 12)
	for i := 0; i < 12; i++ {
		i := i
		ids[i] = s.At(77, func() { got = append(got, i) })
	}
	// Cancel a prefix-interleaved subset, including the first and last.
	for _, i := range []int{0, 3, 4, 7, 11} {
		s.Cancel(ids[i])
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 5, 6, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastClampDiagnostics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		s.At(10, func() {}) // in the past: clamped and counted
		s.At(100, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := s.PastClamps(); got != 1 {
		t.Fatalf("PastClamps() = %d, want 1", got)
	}
	d := s.Diag()
	if d.PastClamps != 1 || d.Pending != 0 || d.Processed != 3 {
		t.Fatalf("Diag() = %+v", d)
	}
	if !s.Drained() {
		t.Fatal("Drained() = false after full run")
	}
}

func TestAtArgDeliversArgument(t *testing.T) {
	s := NewScheduler()
	type payload struct{ v int }
	p := &payload{v: 41}
	var got *payload
	s.AtArg(10, func(a any) { got = a.(*payload) }, p)
	cancelled := s.AfterArg(20*time.Nanosecond, func(a any) { t.Fatal("cancelled AfterArg fired") }, p)
	s.Cancel(cancelled)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != p {
		t.Fatalf("AtArg delivered %v, want %v", got, p)
	}
}

func TestWhenReportsPendingInstant(t *testing.T) {
	s := NewScheduler()
	id := s.At(123, func() {})
	if at, ok := s.When(id); !ok || at != 123 {
		t.Fatalf("When = %v,%v want 123,true", at, ok)
	}
	s.Cancel(id)
	if _, ok := s.When(id); ok {
		t.Fatal("When reported a cancelled event as pending")
	}
	if _, ok := s.When(EventID{}); ok {
		t.Fatal("When accepted the zero EventID")
	}
}

// --- allocation discipline ---

func TestSteadyStateScheduleIsAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the slab.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(10*time.Nanosecond, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		id := s.After(10*time.Nanosecond, fn)
		s.Cancel(id)
		s.RunFor(20 * time.Nanosecond)
	}); allocs != 0 {
		t.Fatalf("steady-state schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

func TestTickerTickIsAllocFree(t *testing.T) {
	s := NewScheduler()
	n := 0
	_, err := s.Every(0, 10*time.Nanosecond, func() { n++ })
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(100 * time.Nanosecond) // warm up
	if allocs := testing.AllocsPerRun(100, func() {
		s.RunFor(1000 * time.Nanosecond) // 100 ticks
	}); allocs != 0 {
		t.Fatalf("ticker steady state allocates %.1f per 100 ticks, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}

// --- randomized differential test against a container/heap reference ---

// refEvent / refQueue reimplement the kernel's firing order on
// container/heap as the oracle: the key (at, seq) and ticker re-arm.
type refEvent struct {
	at      Time
	seq     uint64
	period  time.Duration
	index   int
	fn      func()
	stopped func() bool // ticker only: did this tick stop it?
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refScheduler struct {
	now   Time
	seq   uint64
	queue refQueue
}

// at schedules like Scheduler.At.
func (r *refScheduler) at(t Time, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.queue, e)
	return e
}

func (r *refScheduler) every(start Time, period time.Duration, fn func(), stopped func() bool) *refEvent {
	e := r.at(start, fn)
	e.period, e.stopped = period, stopped
	return e
}

func (r *refScheduler) cancel(e *refEvent) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&r.queue, e.index)
	e.index = -1
}

// fire pops and runs the earliest event, re-arming a ticker after its
// callback the way the kernel does.
func (r *refScheduler) fire() {
	e := heap.Pop(&r.queue).(*refEvent)
	e.index = -1
	r.now = e.at
	e.fn()
	if e.period > 0 && !e.stopped() {
		e.at = e.at.Add(e.period)
		e.seq = r.seq
		r.seq++
		heap.Push(&r.queue, e)
	}
}

func (r *refScheduler) runUntil(t Time) {
	for len(r.queue) > 0 && r.queue[0].at <= t {
		r.fire()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refScheduler) run() {
	for len(r.queue) > 0 {
		r.fire()
	}
}

// clone deep-copies the reference and maps each handle in evs onto its
// copy (nil for events no longer queued, whose cancel is a no-op).
func (r *refScheduler) clone(evs []*refEvent) (refScheduler, []*refEvent) {
	c := *r
	c.queue = make(refQueue, len(r.queue))
	copies := make(map[*refEvent]*refEvent, len(r.queue))
	for i, e := range r.queue {
		ce := *e
		c.queue[i] = &ce
		copies[e] = &ce
	}
	out := make([]*refEvent, len(evs))
	for i, e := range evs {
		out[i] = copies[e]
	}
	return c, out
}

// diffHorizon caps drawn instants: past 2^62, so the top bucket is
// reachable, and far enough below MaxInt64 that ticker re-arms cannot wrap.
const diffHorizon = Time(3) << 61

// The queue's run cases the differential script must reach, as bits of
// runDifferential's runCases result.
const (
	runInsertBeforeTail = 1 << iota // a push lands before the run's last entry
	runTieAfterEqual                // a push ties a run entry that has later entries behind it
	runLowerInside                  // a push below base, inside the run's block
	runLowerAcross                  // a push below base, outside a non-empty run's block
	runSpill                        // a push grows the run past runCap
	runRestore                      // a Restore of a snapshot taken with a non-empty run
)

var runCaseNames = []string{"insert before the tail", "tie after equal instants",
	"lower inside the run", "lower across the run", "spill", "restore with a run"}

// pushCase classifies a push at instant at against the queue's current run.
func pushCase(q *radixQueue, at Time) (c int) {
	run := q.buckets[0][q.head:]
	if q.lvl == 0 || len(run) == 0 {
		return 0
	}
	if at < q.base {
		if bits.Len64(uint64(at^q.base)) < q.lvl {
			return runLowerInside
		}
		return runLowerAcross
	}
	if bits.Len64(uint64(at^q.base)) >= q.lvl {
		return 0
	}
	if tail := run[len(run)-1].at; at < tail {
		c |= runInsertBeforeTail
		for _, e := range run {
			if e.at == at {
				c |= runTieAfterEqual
				break
			}
		}
	}
	if len(run) == runCap {
		c |= runSpill
	}
	return c
}

// runDifferential drives the kernel and the reference through the same
// randomized script and compares complete firing traces. The script mixes
// one-shot events (some scheduling a child from their callback), tickers
// that stop themselves, bursts of events at one instant, swarms of events
// inside the queue's run (enough, at times, to spill it), cancels, partial
// drains, drains that stop short of the next event followed by a schedule
// below it (which lowers the queue's base), and Snapshot/Restore. Offsets
// span nanoseconds to hours and, rarely, centuries, so that every bucket of
// the radix queue is used. It returns the set of buckets that held events,
// as a bitmask, and the run cases (runInsertBeforeTail...) it reached.
func runDifferential(t *testing.T, seed int64, ops int) (cover uint64, runCases int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	type rec struct {
		id int
		at Time
	}
	var gotNew, gotRef []rec
	var ticksNew, ticksRef []int // per ticker: ticks fired so far

	s := NewScheduler()
	r := &refScheduler{}
	var ids []EventID   // kernel handles, by script event id
	var evs []*refEvent // reference handles, same index

	// span draws an offset: mostly nanosecond ties and sub-µs gaps, then
	// any power of two up to hours, and now and then up to 2^62.
	span := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1, 2, 3:
			return Time(rng.Intn(1000))
		}
		k := rng.Intn(44)
		if rng.Intn(8) == 0 {
			k = rng.Intn(63)
		}
		return Time(1)<<k | Time(rng.Int63n(int64(1)<<k))
	}
	instant := func() Time {
		if len(r.queue) > 0 && rng.Intn(4) == 0 { // tie with a queued event
			return r.queue[rng.Intn(len(r.queue))].at
		}
		if d := span(); d < diffHorizon-s.Now() {
			return s.Now() + d
		}
		return diffHorizon
	}
	oneShot := func(at Time) {
		c := pushCase(&s.q, at)
		runCases |= c
		id := len(ids)
		var child Time = -1
		if rng.Intn(4) == 0 {
			child = span() % (1 << 40)
		}
		ids = append(ids, s.At(at, func() {
			gotNew = append(gotNew, rec{id, s.Now()})
			if child >= 0 {
				s.At(s.Now()+child, func() { gotNew = append(gotNew, rec{-id - 1, s.Now()}) })
			}
		}))
		if c&runSpill != 0 && s.q.lvl != 0 {
			t.Fatalf("seed %d: a run of %d entries did not spill", seed, runCap+1)
		}
		evs = append(evs, r.at(at, func() {
			gotRef = append(gotRef, rec{id, r.now})
			if child >= 0 {
				r.at(r.now+child, func() { gotRef = append(gotRef, rec{-id - 1, r.now}) })
			}
		}))
	}

	// mark is a snapshot of both sides: the kernel's, a copy of the
	// reference, and the lengths and tick counts the callbacks write to.
	type mark struct {
		snap                  any
		ref                   refScheduler
		evs                   []*refEvent
		ids, nGotNew, nGotRef int
		ticksNew, ticksRef    []int
		withRun               bool // the kernel's run was non-empty
	}
	var m *mark

	for i := 0; i < ops; i++ {
		switch op := rng.Intn(20); {
		case op < 4 && len(ids) > 0: // cancel a random event or ticker
			k := rng.Intn(len(ids))
			s.Cancel(ids[k])
			r.cancel(evs[k])
		case op < 6: // a ticker that stops itself after a few ticks
			id, limit := len(ids), 1+rng.Intn(6)
			period := time.Duration(1 + span()%(1<<40))
			start := instant()
			tn, tr := len(ticksNew), len(ticksRef)
			ticksNew, ticksRef = append(ticksNew, 0), append(ticksRef, 0)
			var tk *Ticker
			tk, err := s.Every(start, period, func() {
				gotNew = append(gotNew, rec{id, s.Now()})
				if ticksNew[tn]++; ticksNew[tn] == limit {
					tk.Stop()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, tk.id)
			evs = append(evs, r.every(start, period, func() {
				gotRef = append(gotRef, rec{id, r.now})
				ticksRef[tr]++
			}, func() bool { return ticksRef[tr] == limit }))
		case op < 8: // a burst of one-shots at one instant
			at := instant()
			for n := 1 + rng.Intn(6); n > 0; n-- {
				oneShot(at)
			}
		case op == 8: // drain short of the next event, schedule below it
			if len(r.queue) == 0 || r.queue[0].at == s.Now() {
				break
			}
			at := r.queue[0].at
			to := s.Now() + Time(rng.Int63n(int64(at-s.Now())))
			if err := s.RunUntil(to); err != nil { // peeks at, fires nothing
				t.Fatal(err)
			}
			r.runUntil(to)
			oneShot(to + Time(rng.Int63n(int64(at-to))))
		case op == 9: // snapshot, or rewind to the last one
			if m != nil && rng.Intn(2) == 0 {
				if m.withRun {
					runCases |= runRestore
				}
				s.Restore(m.snap)
				*r, evs = m.ref.clone(m.evs)
				ids, gotNew, gotRef = ids[:m.ids], gotNew[:m.nGotNew], gotRef[:m.nGotRef]
				ticksNew = append(ticksNew[:0], m.ticksNew...)
				ticksRef = append(ticksRef[:0], m.ticksRef...)
				break
			}
			m = &mark{snap: s.Snapshot(), ids: len(ids), nGotNew: len(gotNew), nGotRef: len(gotRef),
				ticksNew: append([]int(nil), ticksNew...), ticksRef: append([]int(nil), ticksRef...)}
			m.ref, m.evs = r.clone(evs)
			m.withRun = s.q.lvl > 0 && s.q.head < len(s.q.buckets[0])
		case op == 10 && s.q.lvl > 1: // a swarm inside the run's block
			lo, hi := s.q.base, s.q.base|(Time(1)<<(s.q.lvl-1)-1)
			lo, hi = max(lo, s.Now()), min(hi, diffHorizon)
			for n := rng.Intn(runCap + 8); n > 0 && lo <= hi; n-- {
				oneShot(lo + Time(rng.Int63n(int64(hi-lo)+1)))
			}
		default:
			oneShot(instant())
		}
		if rng.Intn(16) == 0 { // drain part of the timeline
			target := instant()
			if err := s.RunUntil(target); err != nil {
				t.Fatal(err)
			}
			r.runUntil(target)
		}
		if s.Pending() != len(r.queue) || s.Now() != r.now {
			t.Fatalf("seed %d op %d: kernel pending %d at %v, reference %d at %v",
				seed, i, s.Pending(), s.Now(), len(r.queue), r.now)
		}
		cover |= s.q.mask
		if s.q.head < len(s.q.buckets[0]) {
			cover |= 1
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r.run()

	if len(gotNew) != len(gotRef) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("seed %d: divergence at event %d: kernel %+v, reference %+v",
				seed, i, gotNew[i], gotRef[i])
		}
	}
	return cover, runCases
}

func TestSchedulerMatchesReferenceModel(t *testing.T) {
	var cover uint64
	cases := 0
	for seed := int64(1); seed <= 50; seed++ {
		c, rc := runDifferential(t, seed, 400)
		cover, cases = cover|c, cases|rc
	}
	if cover != ^uint64(0) {
		t.Fatalf("the script left %d of 64 queue buckets unused (used %064b)", 64-bits.OnesCount64(cover), cover)
	}
	for i, name := range runCaseNames {
		if cases&(1<<i) == 0 {
			t.Errorf("the script never reached the run case %q", name)
		}
	}
}

func FuzzSchedulerVsReferenceModel(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(1000))
	f.Add(int64(-7), uint16(317))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runDifferential(t, seed, int(ops%2048))
	})
}
