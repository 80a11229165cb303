package sim

// Lifecycle and stress tests for the per-call worker barrier. They run
// under -race at one and two Ps (Makefile verify): the channel hand-offs
// must order every shard-state access, and the dirty-list publication is
// the one lockless structure the workers share.

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to want (an
// exited worker's goroutine is reaped asynchronously, so a single sample
// right after RunUntil can race the runtime).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d still running, want ≤ %d (worker leak after RunUntil)",
				runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFabricWorkersEndWithRunUntil pins the worker lifetime: the workers a
// parallel RunUntil spawns have exited by the time it returns — after a
// clean run and after a shard error alike — so a fabric holds no goroutine
// between calls and dropping it leaks nothing.
func TestFabricWorkersEndWithRunUntil(t *testing.T) {
	base := runtime.NumGoroutine()
	s0, s1, control := NewScheduler(), NewScheduler(), NewScheduler()
	var recv01, recv10 []Time
	p01 := &pipe{delay: 30 * time.Microsecond, dst: s1, recv: &recv01}
	p10 := &pipe{delay: 30 * time.Microsecond, dst: s0, recv: &recv10}
	for i := 0; i < 50; i++ {
		at := Time(i * 100_000)
		i := i
		s0.At(at, func() { p01.send(s0, i) })
		s1.At(at.Add(50*time.Microsecond), func() { p10.send(s1, i) })
	}
	s1.At(Time(2_500_000), func() { s1.Stop() })
	f := NewFabric([]*Scheduler{s0, s1}, control, []Boundary{p01, p10})
	f.ForceParallel = true
	barriers := 0
	f.BarrierObserver = func(float64) { barriers++ }

	if err := f.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if barriers == 0 {
		t.Fatal("ForceParallel run never reached the worker barrier")
	}
	if f.group != nil {
		t.Fatal("RunUntil returned with its workers still attached")
	}
	waitGoroutines(t, base)

	if err := f.RunFor(2 * time.Millisecond); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunFor error = %v, want ErrStopped", err)
	}
	if f.group != nil {
		t.Fatal("RunUntil returned from a shard error with its workers still attached")
	}
	waitGoroutines(t, base)

	if err := f.RunFor(10 * time.Millisecond); err != nil {
		t.Fatalf("resumed RunFor: %v", err)
	}
	waitGoroutines(t, base)
	if len(recv01) != 50 || len(recv10) != 50 {
		t.Fatalf("deliveries %d/%d, want 50 each", len(recv01), len(recv10))
	}
}

// TestFabricShardErrorTerminatesWorkers pins error semantics under the
// worker barrier: a shard stopping mid-window surfaces ErrStopped from
// RunUntil, every worker still completes its window (no wedged barrier),
// and every worker has exited once RunUntil returns. The stopping shard is
// either the dispatched worker (shard 1) or the inline shard (shard 0, run
// on the coordinator). In the inline case the coordinator already holds
// its error when it reaches the barrier and must still wait for shard 1 to
// finish its window; the resumed run is compared against a serial twin.
func TestFabricShardErrorTerminatesWorkers(t *testing.T) {
	run := func(t *testing.T, stopper int, parallel bool) ([]Time, []Time) {
		s0, s1, control := NewScheduler(), NewScheduler(), NewScheduler()
		scheds := []*Scheduler{s0, s1}
		var recv01, recv10 []Time
		p01 := &pipe{delay: 30 * time.Microsecond, dst: s1, recv: &recv01}
		p10 := &pipe{delay: 30 * time.Microsecond, dst: s0, recv: &recv10}
		for i := 0; i < 20; i++ {
			at := Time(i * 100_000)
			i := i
			s0.At(at, func() { p01.send(s0, i) })
			s1.At(at, func() { p10.send(s1, i) })
			s0.At(at.Add(5*time.Microsecond), func() {})
			s1.At(at.Add(5*time.Microsecond), func() {})
		}
		// The stop lands in the window [500µs, 530µs), where both shards
		// have events, so busy = [0 1] and shard 0 runs inline.
		sc := scheds[stopper]
		sc.At(Time(5*100_000+5_000), func() { sc.Stop() })
		f := NewFabric(scheds, control, []Boundary{p01, p10})
		barriers := 0
		f.BarrierObserver = func(float64) { barriers++ }
		if parallel {
			f.ForceParallel = true
		} else {
			f.maxprocs = 1 // pin to the serial path
		}
		if err := f.RunFor(10 * time.Millisecond); !errors.Is(err, ErrStopped) {
			t.Fatalf("RunFor error = %v, want ErrStopped", err)
		}
		if parallel && barriers == 0 {
			t.Fatal("no window reached the worker barrier")
		}
		if err := f.RunFor(10 * time.Millisecond); err != nil {
			t.Fatalf("resumed RunFor: %v", err)
		}
		return recv01, recv10
	}
	for _, tc := range []struct {
		name    string
		stopper int
	}{{"worker", 1}, {"inline", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			par01, par10 := run(t, tc.stopper, true)
			waitGoroutines(t, base)
			ser01, ser10 := run(t, tc.stopper, false)
			if !reflect.DeepEqual(ser01, par01) || !reflect.DeepEqual(ser10, par10) {
				t.Fatalf("resumed parallel run diverged from serial twin: %d/%d vs %d/%d deliveries",
					len(par01), len(par10), len(ser01), len(ser10))
			}
			if len(ser01) != 20 || len(ser10) != 20 {
				t.Fatalf("serial twin delivered %d/%d, want 20 each", len(ser01), len(ser10))
			}
		})
	}
}

// TestFabricRunUntilBackwards pins the target validation: a target behind
// the committed instant is an error, not a silent no-op or a spin.
func TestFabricRunUntilBackwards(t *testing.T) {
	s0, control := NewScheduler(), NewScheduler()
	f := NewFabric([]*Scheduler{s0}, control, nil)
	if err := f.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntil(999); err == nil {
		t.Fatal("RunUntil behind the committed instant succeeded, want error")
	}
	if err := f.RunUntil(1000); err != nil {
		t.Fatalf("RunUntil(now) must stay valid, got %v", err)
	}
}

// TestFabricZeroBoundaryLookahead pins the satellite fix: the zero-boundary
// fast path must publish its (effectively unbounded) lookahead into stats
// instead of leaving the previous value behind.
func TestFabricZeroBoundaryLookahead(t *testing.T) {
	s0, control := NewScheduler(), NewScheduler()
	s0.At(10, func() {})
	f := NewFabric([]*Scheduler{s0}, control, nil)
	if err := f.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.LookaheadNS != int64(Time(1<<62-1)) {
		t.Fatalf("zero-boundary LookaheadNS = %d, want %d", st.LookaheadNS, int64(Time(1<<62-1)))
	}
	if st.LookaheadRescans != 1 {
		t.Fatalf("LookaheadRescans = %d, want 1 (cached afterwards)", st.LookaheadRescans)
	}
}

// TestFabricLookaheadCacheAndDirtyFlush pins the caching machinery end to
// end: the MinDelay rescan runs once up front and once per invalidation
// (not per window), flush skips barriers with no captured sends, and a
// delay mutation reported through the hook
// changes the effective lookahead.
func TestFabricLookaheadCacheAndDirtyFlush(t *testing.T) {
	s0, s1, control := NewScheduler(), NewScheduler(), NewScheduler()
	var recv01, recv10 []Time
	p01 := &pipe{delay: 30 * time.Microsecond, dst: s1, recv: &recv01}
	p10 := &pipe{delay: 30 * time.Microsecond, dst: s0, recv: &recv10}
	for i := 0; i < 40; i++ {
		at := Time(i * 100_000)
		i := i
		s0.At(at, func() { p01.send(s0, i) })
		s1.At(at.Add(50*time.Microsecond), func() { p10.send(s1, i) })
		// Local busywork that defers nothing: barriers after these windows
		// must hit the flush fast path.
		s0.At(at.Add(10*time.Microsecond), func() {})
		s1.At(at.Add(10*time.Microsecond), func() {})
	}
	// Halve one pipe's delay mid-run via the control scheduler, reporting
	// it through the bound invalidation hook — the canonical chaos/WAN
	// mutation shape.
	control.At(Time(2_000_000), func() {
		p01.delay = 15 * time.Microsecond
		p01.invalidate()
	})
	f := NewFabric([]*Scheduler{s0, s1}, control, []Boundary{p01, p10})
	if err := f.RunFor(6 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.LookaheadRescans != 2 {
		t.Fatalf("LookaheadRescans = %d, want 2 (initial + one invalidation) over %d windows",
			st.LookaheadRescans, st.Windows)
	}
	if st.LookaheadNS != int64(15*time.Microsecond) {
		t.Fatalf("post-mutation LookaheadNS = %d, want %d", st.LookaheadNS, int64(15*time.Microsecond))
	}
	if st.FlushesSkipped == 0 {
		t.Fatal("no barrier skipped flushing despite send-free windows")
	}
	if len(recv01) != 40 || len(recv10) != 40 {
		t.Fatalf("deliveries %d/%d, want 40 each", len(recv01), len(recv10))
	}
}

// TestFabricBarrierStress drives the worker barrier through thousands of
// windows with a randomized busy-shard set per window — every subset size
// from one lone shard to all eight — and checks the delivery traces are
// bit-identical to a serial twin of the same workload. Run under -race
// at one and two Ps (make verify) this doubles as the memory-model check
// on the channel hand-offs and the dirty-list publication.
func TestFabricBarrierStress(t *testing.T) {
	const (
		shards  = 8
		rounds  = 3000
		spacing = 10_000 // ns between rounds; lookahead is 5µs
	)
	build := func() (scheds []*Scheduler, control *Scheduler, bounds []Boundary, traces []*[]Time) {
		control = NewScheduler()
		for i := 0; i < shards; i++ {
			scheds = append(scheds, NewScheduler())
		}
		rng := rand.New(rand.NewSource(7))
		// Ring of pipes i -> (i+1)%shards.
		for i := 0; i < shards; i++ {
			tr := &[]Time{}
			traces = append(traces, tr)
			bounds = append(bounds, &pipe{
				delay: 5 * time.Microsecond, dst: scheds[(i+1)%shards], recv: tr,
			})
		}
		for r := 0; r < rounds; r++ {
			at := Time(r * spacing)
			// A random subset of shards is busy this round; busy shards
			// randomly either send around the ring or just do local work.
			for i := 0; i < shards; i++ {
				if rng.Intn(3) == 0 {
					continue
				}
				i := i
				if rng.Intn(2) == 0 {
					sc, p := scheds[i], bounds[i].(*pipe)
					scheds[i].At(at, func() { p.send(sc, r) })
				} else {
					scheds[i].At(at, func() {})
				}
			}
		}
		return
	}

	runTrace := func(parallel bool) ([]Time, FabricStats) {
		scheds, control, bounds, traces := build()
		f := NewFabric(scheds, control, bounds)
		if parallel {
			f.ForceParallel = true
		} else {
			f.maxprocs = 1 // pin to the serial path
		}
		if err := f.RunFor(time.Duration(rounds*spacing) + time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var all []Time
		for _, tr := range traces {
			all = append(all, *tr...)
		}
		return all, f.Stats()
	}

	serial, sstats := runTrace(false)
	par, pstats := runTrace(true)
	if len(serial) == 0 {
		t.Fatal("stress workload produced no deliveries")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel barrier diverged from serial twin: %d vs %d deliveries",
			len(par), len(serial))
	}
	if sstats.Committed != pstats.Committed {
		t.Fatalf("committed %d (serial) vs %d (parallel)", sstats.Committed, pstats.Committed)
	}
	if pstats.Windows < rounds/2 {
		t.Fatalf("only %d windows over %d rounds — stress did not exercise the barrier", pstats.Windows, rounds)
	}
}
