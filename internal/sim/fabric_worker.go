package sim

// Per-call shard workers and the spin-then-park barrier that drives them.
//
// One goroutine per shard but shard 0 is started lazily on the first
// parallel window of a RunUntil call and ends with that call: RunUntil
// stops the group and waits for it on every return path, errors included.
// Shard 0, when busy, is always busy[0], which runs inline on the
// coordinator, so it never needs a worker. A fabric holds no
// goroutine between calls, so a fabric dropped mid-simulation (or the
// System owning it) leaves nothing running and needs no Close.
//
// Each worker and the coordinator hand windows back and forth over two
// signals, each a monotonically increasing epoch with one publisher and
// one waiter. start carries the number of windows dispatched to the
// worker (the window end and the quit flag are written before it is
// raised); done carries the number of windows the worker has finished
// (its error is written before it is raised). Both waiters first poll the
// epoch, yielding the processor every pollsPerYield polls, and park on the
// signal's one-slot wake channel only once spinBudget of wall time has
// passed; a publisher sends a wake token only to a waiter that parked.
//
//	coordinator                       worker w (one per shard > 0)
//	-----------                       ------------------------
//	for each w in busy[1:]:           for e := 1, 2, ...:
//	  w.end = end                       w.start.await(e)   spin, then park
//	  w.start.publish(++w.sent)         if w.quit: exit
//	err0 = busy[0].RunUntil(end)        w.err = sc.RunUntil(w.end)
//	for each w in busy[1:]:             w.done.publish(e)
//	  w.done.await(w.sent)  spin, then park
//
// A parallel window on two cores therefore costs a cache-line handoff, not
// an OS thread wake-up, as long as the next dispatch comes within the
// budget (see spinBudget). A worker runs window e only once start has
// reached e, and e moves past every window it ran, so a wake token left
// over from an earlier epoch (a publisher that stored the epoch, lost the
// processor, and found the waiter parked for the next one) only sends the
// waiter back to park. The coordinator awaits every busy worker before it
// goes on, even when busy[0] failed, so every busy shard finishes its
// window. The atomic epochs and the wake channels are the happens-before
// edges that hand shard state (and w.err) between the goroutines.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is the wall time a waiter at the barrier polls before it
// parks. It has to cover the gap between two parallel dispatches to the
// same worker, during which the coordinator runs serial windows, flushes
// and control rounds: a worker that parks in that gap costs an OS thread
// wake-up on its next dispatch, which is tens of microseconds against
// windows of a few dozen events. On the 8-site bench fabric (2 shards,
// 2 vCPUs) that gap is about 130 µs on average, 97% of gaps are under
// 0.5 ms and 99.9% under 1 ms, so a budget of tens of µs parks workers
// before most dispatches. A millisecond covers the gap and still parks a
// worker whose shard has gone quiet, or whose coordinator is inside a
// long control callback.
const spinBudget = time.Millisecond

// pollsPerYield is the number of epoch polls between runtime.Gosched calls
// (and wall-clock budget checks) while spinning: polls are a few
// nanoseconds, a yield a fraction of a microsecond.
const pollsPerYield = 32

// signal carries an increasing epoch from one publisher goroutine to one
// waiter. parked is set by a waiter about to block on wake; a publisher
// that clears it owes the waiter exactly one token, so wake never holds
// more than one.
type signal struct {
	epoch  atomic.Uint64
	parked atomic.Bool
	wake   chan struct{}
}

func newSignal() signal { return signal{wake: make(chan struct{}, 1)} }

// publish raises the epoch to e and wakes the waiter if it has parked,
// reporting whether it had to.
func (s *signal) publish(e uint64) bool {
	s.epoch.Store(e)
	if s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
		return true
	}
	return false
}

// await returns once the epoch has reached want, spinning for up to budget
// and parking after that.
func (s *signal) await(want uint64, budget time.Duration) {
	var spinStart time.Time
	for i := 1; ; i++ {
		if s.epoch.Load() >= want {
			return
		}
		if i%pollsPerYield == 0 {
			if i == pollsPerYield {
				spinStart = time.Now()
			} else if time.Since(spinStart) > budget {
				break
			}
			runtime.Gosched()
		}
	}
	for {
		s.parked.Store(true)
		if s.epoch.Load() >= want {
			if !s.parked.CompareAndSwap(true, false) {
				<-s.wake // a publisher claimed the park: take its token
			}
			return
		}
		<-s.wake
		if s.epoch.Load() >= want {
			return
		}
		// A stale token: a publish of an earlier epoch that found this
		// waiter parked for a later one. Park again.
	}
}

// workerGroup owns the workers of one RunUntil call.
type workerGroup struct {
	workers []*fabricWorker // indexed by shard; workers[0] is nil
	budget  time.Duration
	exited  sync.WaitGroup
}

// fabricWorker is the goroutine owning one shard's window execution. end
// and quit are written by the coordinator before start is raised; err and
// runs by the worker before done is raised. sent is the coordinator's own
// count of windows dispatched (plus the quit).
type fabricWorker struct {
	sc          *Scheduler
	start, done signal
	end         Time
	quit        bool
	err         error
	runs        uint64 // windows run, checked against sent by the barrier tests
	sent        uint64
}

// startWorkers spawns the workers of shards 1..n−1. Called lazily from the
// first window of a RunUntil call that takes the parallel path, so
// serial-only calls (one core, one busy shard at a time) never spawn any.
func (f *Fabric) startWorkers() {
	g := &workerGroup{budget: f.spinBudget, workers: make([]*fabricWorker, len(f.shards))}
	for i, sc := range f.shards[1:] {
		w := &fabricWorker{sc: sc, start: newSignal(), done: newSignal()}
		g.workers[i+1] = w
		g.exited.Add(1)
		go w.run(g)
	}
	f.group = g
}

func (w *fabricWorker) run(g *workerGroup) {
	defer g.exited.Done()
	for e := uint64(1); ; e++ {
		w.start.await(e, g.budget)
		if w.quit {
			return
		}
		w.err = w.sc.RunUntil(w.end)
		w.runs++
		w.done.publish(e)
	}
}

// stopWorkers terminates the current call's workers, if any started, and
// waits for them to exit, spinning or parked. RunUntil defers it.
func (f *Fabric) stopWorkers() {
	if f.group == nil {
		return
	}
	for _, w := range f.group.workers[1:] {
		w.quit = true
		w.sent++
		w.start.publish(w.sent)
	}
	f.group.exited.Wait()
	f.group = nil
}

// runWindowParallel executes one window over the busy shards on the
// workers: busy[1:] are dispatched, busy[0] runs inline on the coordinator,
// and the coordinator then waits at the barrier. Errors are reported with
// the same semantics as the serial path: every busy shard finishes its
// window, and the first error in busy (shard-index) order is returned.
func (f *Fabric) runWindowParallel(busy []int, end Time) error {
	if f.group == nil {
		f.startWorkers()
	}
	g := f.group
	for _, i := range busy[1:] {
		w := g.workers[i]
		w.end = end
		w.sent++
		if w.start.publish(w.sent) {
			f.stats.WorkerParks++
		}
	}
	err0 := f.shards[busy[0]].RunUntil(end)
	start := time.Now()
	for _, i := range busy[1:] {
		w := g.workers[i]
		w.done.await(w.sent, g.budget)
	}
	wait := time.Since(start)
	f.stats.BarrierWaitNS += uint64(wait)
	if f.BarrierObserver != nil {
		f.BarrierObserver(float64(wait))
	}
	if err0 != nil {
		return err0
	}
	for _, i := range busy[1:] {
		if err := g.workers[i].err; err != nil {
			return err
		}
	}
	return nil
}
