package sim

// Lifecycle and stress tests for the per-call worker barrier. They run
// under -race at one, two and four Ps (Makefile verify): the epoch and
// wake-channel hand-offs must order every shard-state access, and the
// dirty-list publication is the other lockless structure the workers
// share.

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
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // pin to the serial path
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

// stressFabric builds the barrier stress workload: eight shards in a ring
// of 5µs pipes and rounds rounds 10µs apart, in each of which a random
// subset of shards is busy, either sending around the ring or doing local
// work. It returns the fabric and one delivery trace per pipe.
func stressFabric(rounds int) (*Fabric, []*[]Time) {
	const shards = 8
	control := NewScheduler()
	var scheds []*Scheduler
	for i := 0; i < shards; i++ {
		scheds = append(scheds, NewScheduler())
	}
	rng := rand.New(rand.NewSource(7))
	var bounds []Boundary
	var traces []*[]Time
	for i := 0; i < shards; i++ {
		tr := &[]Time{}
		traces = append(traces, tr)
		bounds = append(bounds, &pipe{
			delay: 5 * time.Microsecond, dst: scheds[(i+1)%shards], recv: tr,
		})
	}
	for r := 0; r < rounds; r++ {
		at := Time(r * stressSpacing)
		for i := 0; i < shards; i++ {
			if rng.Intn(3) == 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				sc, p := scheds[i], bounds[i].(*pipe)
				scheds[i].At(at, func() { p.send(sc, r) })
			} else {
				scheds[i].At(at, func() {})
			}
		}
	}
	return NewFabric(scheds, control, bounds), traces
}

const stressSpacing = 10_000 // ns between stress rounds; the lookahead is 5µs

// runStress runs the stress workload to its end, serially (GOMAXPROCS 1)
// or forced through the worker barrier, and returns the concatenated
// delivery traces. prepare, if set, runs on the fabric before RunFor.
func runStress(t *testing.T, rounds int, parallel bool, prepare func(*Fabric)) ([]Time, FabricStats) {
	t.Helper()
	f, traces := stressFabric(rounds)
	if parallel {
		f.ForceParallel = true
	} else {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // pin to the serial path
	}
	if prepare != nil {
		prepare(f)
	}
	if err := f.RunFor(time.Duration(rounds*stressSpacing) + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var all []Time
	for _, tr := range traces {
		all = append(all, *tr...)
	}
	return all, f.Stats()
}

// TestFabricBarrierStress drives the worker barrier through thousands of
// windows with a randomized busy-shard set per window — every subset size
// from one lone shard to all eight — and checks the delivery traces are
// bit-identical to a serial twin of the same workload. Run under -race
// at one, two and four Ps (make verify) this doubles as the memory-model
// check on the barrier hand-offs and the dirty-list publication. It also
// counts the goroutines of the parallel call: one worker per shard but
// shard 0 (which runs inline on the coordinator), none left afterwards.
func TestFabricBarrierStress(t *testing.T) {
	const rounds = 3000
	serial, sstats := runStress(t, rounds, false, nil)
	base, peak, shards := runtime.NumGoroutine(), 0, 0
	par, pstats := runStress(t, rounds, true, func(f *Fabric) {
		shards = len(f.shards)
		f.control.At(Time(rounds/2*stressSpacing), func() { peak = runtime.NumGoroutine() })
	})
	if peak != base+shards-1 {
		t.Fatalf("parallel RunUntil ran %d goroutines over a base of %d, want %d workers for %d shards",
			peak, base, shards-1, shards)
	}
	waitGoroutines(t, base)
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

// TestFabricStaleWakeRunsEachWindowOnce runs the stress workload with the
// spin budget cut to nothing or a few microseconds, so that workers and
// the coordinator park and wake around most of the ~3000 windows and a
// publisher can find its waiter parked for a later epoch than the one it
// published. A control event after the last round counts, per worker, the
// windows it ran against the windows dispatched to it: a stale wake token
// that let a worker run a window twice, or skip one, breaks the equality.
func TestFabricStaleWakeRunsEachWindowOnce(t *testing.T) {
	const rounds = 3000
	serial, _ := runStress(t, rounds, false, nil)
	for _, budget := range []time.Duration{0, 5 * time.Microsecond} {
		var dispatched uint64
		par, st := runStress(t, rounds, true, func(f *Fabric) {
			f.spinBudget = budget
			f.control.At(Time(rounds*stressSpacing), func() {
				if f.group == nil {
					t.Fatal("no worker started before the counting control event")
				}
				for i, w := range f.group.workers[1:] {
					if w.runs != w.sent {
						t.Errorf("budget %v: shard %d ran %d windows, %d dispatched", budget, i+1, w.runs, w.sent)
					}
					dispatched += w.sent
				}
			})
		})
		if dispatched < rounds {
			t.Fatalf("budget %v: only %d worker dispatches over %d rounds", budget, dispatched, rounds)
		}
		if st.WorkerParks == 0 {
			t.Fatalf("budget %v: no dispatch found its worker parked", budget)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("budget %v: parallel barrier diverged from serial twin: %d vs %d deliveries",
				budget, len(par), len(serial))
		}
	}
}

// TestSignalStaleWake replays the stale-wake interleaving step by step on
// one signal: the publisher stores epoch 1 and loses the processor before
// its parked check; the waiter takes epoch 1 off the spin, comes back for
// epoch 2 and parks; only then does the publisher's check find it parked
// and send a token. That token is stale, and the waiter must park again
// rather than return for an epoch nobody published.
func TestSignalStaleWake(t *testing.T) {
	s := newSignal()
	s.epoch.Store(1) // first half of publish(1)
	returned := make(chan uint64)
	go func() {
		s.await(1, time.Hour)
		returned <- 1
		s.await(2, 0)
		returned <- 2
	}()
	if got := <-returned; got != 1 {
		t.Fatalf("await returned for epoch %d, want 1", got)
	}
	waitParked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !s.parked.Load() {
			select {
			case got := <-returned:
				t.Fatalf("await(2) returned (%d) on a stale wake token", got)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked for epoch 2")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitParked()
	// Second half of the delayed publish(1): it finds the waiter parked.
	if !s.parked.CompareAndSwap(true, false) {
		t.Fatal("waiter un-parked on its own")
	}
	s.wake <- struct{}{}
	waitParked() // the waiter took the stale token and parked again
	if !s.publish(2) {
		t.Fatal("publish(2) found the waiter not parked")
	}
	if got := <-returned; got != 2 {
		t.Fatalf("await returned for epoch %d, want 2", got)
	}
}

// lockstepFabric wires two shards that both send across at the same
// instants, every 100µs for rounds rounds, so that every sending window
// and every delivery window has both shards busy.
func lockstepFabric(rounds int) (f *Fabric, recv01, recv10 *[]Time) {
	s0, s1, control := NewScheduler(), NewScheduler(), NewScheduler()
	recv01, recv10 = &[]Time{}, &[]Time{}
	p01 := &pipe{delay: 30 * time.Microsecond, dst: s1, recv: recv01}
	p10 := &pipe{delay: 30 * time.Microsecond, dst: s0, recv: recv10}
	for i := 0; i < rounds; i++ {
		at := Time(i * 100_000)
		i := i
		s0.At(at, func() { p01.send(s0, i) })
		s1.At(at, func() { p10.send(s1, i) })
	}
	return NewFabric([]*Scheduler{s0, s1}, control, []Boundary{p01, p10}), recv01, recv10
}

// TestFabricWorkerParksAndWakes pins the park path: a control callback
// that holds the coordinator longer than the spin budget lets the
// dispatched worker park, and the next parallel window wakes it through
// its wake channel. The deliveries must equal the serial twin's.
func TestFabricWorkerParksAndWakes(t *testing.T) {
	const rounds, sleeps = 40, 3
	run := func(parallel bool) ([]Time, []Time, FabricStats) {
		f, recv01, recv10 := lockstepFabric(rounds)
		if parallel {
			f.ForceParallel = true
		} else {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // pin to the serial path
		}
		for k := 1; k <= sleeps; k++ {
			f.control.At(Time(k*1_000_000+50_000), func() {
				time.Sleep(2 * f.spinBudget)
				if !parallel {
					return
				}
				// The sleep outlasts the budget; wait for the park itself
				// too, in case the worker's thread was not scheduled.
				w := f.group.workers[1]
				deadline := time.Now().Add(5 * time.Second)
				for !w.start.parked.Load() {
					if time.Now().After(deadline) {
						t.Error("worker never parked during a long control callback")
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			})
		}
		if err := f.RunFor(time.Duration(rounds) * 100 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
		return *recv01, *recv10, f.Stats()
	}
	par01, par10, st := run(true)
	if st.WorkerParks < sleeps {
		t.Fatalf("WorkerParks = %d, want ≥ %d (one per long control callback)", st.WorkerParks, sleeps)
	}
	ser01, ser10, _ := run(false)
	if !reflect.DeepEqual(ser01, par01) || !reflect.DeepEqual(ser10, par10) {
		t.Fatalf("parallel run with parked workers diverged from serial twin: %d/%d vs %d/%d deliveries",
			len(par01), len(par10), len(ser01), len(ser10))
	}
	if len(ser01) != rounds || len(ser10) != rounds {
		t.Fatalf("serial twin delivered %d/%d, want %d each", len(ser01), len(ser10), rounds)
	}
}

// TestFabricStopWorkersSpinningOrParked pins that stopWorkers ends every
// worker whatever it is doing: polling its start epoch (a budget it
// cannot exhaust) or parked on its wake channel (no budget at all).
func TestFabricStopWorkersSpinningOrParked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget time.Duration
		parked bool
	}{{"spinning", time.Hour, false}, {"parked", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			f, _, _ := lockstepFabric(1)
			f.spinBudget = tc.budget
			f.startWorkers()
			if err := f.runWindowParallel([]int{0, 1}, 0); err != nil {
				t.Fatal(err)
			}
			for _, w := range f.group.workers[1:] {
				deadline := time.Now().Add(5 * time.Second)
				for w.start.parked.Load() != tc.parked {
					if time.Now().After(deadline) {
						t.Fatalf("worker parked = %v, want %v", w.start.parked.Load(), tc.parked)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			f.stopWorkers()
			if f.group != nil {
				t.Fatal("stopWorkers left its group attached")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFabricReadsGOMAXPROCSPerCall pins when the serial rule reads
// GOMAXPROCS: at each RunUntil call, not when the fabric is built. A
// fabric built under two Ps and run under one takes the serial path for
// every window and starts no worker goroutine; with two Ps again, the
// same fabric dispatches to its workers.
func TestFabricReadsGOMAXPROCSPerCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f, _, _ := lockstepFabric(50)
	barriers := 0
	f.BarrierObserver = func(float64) { barriers++ }
	runtime.GOMAXPROCS(1)
	base := runtime.NumGoroutine()
	peak := 0
	f.control.At(Time(2_000_000), func() { peak = runtime.NumGoroutine() })
	if err := f.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if barriers != 0 || st.SerialWindows == 0 || peak > base {
		t.Fatalf("run at GOMAXPROCS 1: %d barriers, %d serial windows, %d goroutines (base %d); want no worker",
			barriers, st.SerialWindows, peak, base)
	}
	runtime.GOMAXPROCS(2)
	if err := f.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if barriers == 0 {
		t.Fatal("run at GOMAXPROCS 2 never reached the worker barrier")
	}
}
