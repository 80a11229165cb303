package sim

// Persistent shard workers and the channel barrier that drives them.
//
// One goroutine per shard is started lazily on the first parallel window
// and lives until Fabric.Close. Each worker blocks on its own start
// channel, which carries the window end; closing that channel tells the
// worker to quit. A worker publishes its error in its own field and then
// sends one token on the group's shared done channel, buffered to hold one
// token per worker.
//
//	coordinator                      worker w (one per shard)
//	-----------                      ------------------------
//	for each w in busy[1:]:          for end := range w.start:
//	  w.start <- end                   w.err = sc.RunUntil(end)
//	err0 = busy[0].RunUntil(end)       g.done <- struct{}{}
//	receive len(busy)-1 tokens       (start closed: exit)
//	  from g.done
//
// The coordinator receives every token of a window before it returns, even
// when busy[0] failed: a token left in done would complete the next
// window's barrier while its worker was still running. The channel
// operations are also the happens-before edges that hand shard state (and
// w.err) between the coordinator and the workers.
//
// Worker goroutines reference only the workerGroup and their own scheduler,
// never the Fabric, and the BindFabric hooks reach only fabricHooks.
// Goroutine stacks are GC roots, so a worker that could reach the Fabric
// would pin an abandoned fabric forever; as it is, a fabric dropped without
// Close becomes unreachable and its finalizer reaps the workers. Explicit
// Close remains the deterministic path (System.Close, benchmarks).

import (
	"runtime"
	"sync"
	"time"
)

// workerGroup owns the persistent workers and the completion channel they
// share with the coordinator. It deliberately holds no Fabric reference.
type workerGroup struct {
	workers []*fabricWorker
	done    chan struct{}
	exited  sync.WaitGroup
}

// fabricWorker is the goroutine owning one shard's window execution. err is
// written by the worker before its done token and read by the coordinator
// after receiving it.
type fabricWorker struct {
	sc    *Scheduler
	start chan Time
	err   error
}

// startWorkers spawns the per-shard workers. Called lazily from the first
// window that takes the parallel path, so serial-only fabrics (one core,
// one shard, or closed before converging) never carry idle goroutines.
// The finalizer covers fabrics abandoned without Close.
func (f *Fabric) startWorkers() {
	g := &workerGroup{done: make(chan struct{}, len(f.shards))}
	for _, sc := range f.shards {
		w := &fabricWorker{sc: sc, start: make(chan Time, 1)}
		g.workers = append(g.workers, w)
		g.exited.Add(1)
		go w.run(g)
	}
	f.group = g
	runtime.SetFinalizer(f, func(*Fabric) { g.close() })
}

func (w *fabricWorker) run(g *workerGroup) {
	defer g.exited.Done()
	for end := range w.start {
		w.err = w.sc.RunUntil(end)
		g.done <- struct{}{}
	}
}

// close terminates every worker and waits for them to exit. It runs once
// per group: from Fabric.Close, which removes the finalizer, or from the
// finalizer of a fabric that was never closed.
func (g *workerGroup) close() {
	for _, w := range g.workers {
		close(w.start)
	}
	g.exited.Wait()
}

// runWindowParallel executes one window over the busy shards on the
// persistent workers: busy[1:] are dispatched, busy[0] runs inline on the
// coordinator, and the coordinator then waits at the barrier. Errors are
// reported with the same semantics as the serial path: every busy shard
// finishes its window, and the first error in busy (shard-index) order is
// returned.
func (f *Fabric) runWindowParallel(busy []int, end Time) error {
	if f.group == nil {
		f.startWorkers()
	}
	g := f.group
	for _, i := range busy[1:] {
		g.workers[i].start <- end
	}
	err0 := f.shards[busy[0]].RunUntil(end)
	start := time.Now()
	for range busy[1:] {
		<-g.done
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

// Close terminates the persistent workers and pins the fabric to its
// serial path. The fabric remains fully usable afterwards — RunUntil keeps
// working, with every window executed inline on the calling goroutine — so
// drivers may Close as soon as they stop caring about parallelism (end of
// a benchmark iteration, System.Close) without ending the simulation.
// Close is idempotent and must be called from the driving goroutine, never
// concurrently with RunUntil.
func (f *Fabric) Close() {
	if f.closed {
		return
	}
	f.closed = true
	if f.group == nil {
		return
	}
	f.group.close()
	f.group = nil
	runtime.SetFinalizer(f, nil)
}
