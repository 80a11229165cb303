package sim

// Per-call shard workers and the channel barrier that drives them.
//
// One goroutine per shard is started lazily on the first parallel window
// of a RunUntil call and ends with that call: RunUntil stops the group and
// waits for it on every return path, errors included. A fabric holds no
// goroutine between calls, so a fabric dropped mid-simulation (or the
// System owning it) leaves nothing running and needs no Close.
//
// Each worker blocks on its own start channel, which carries the window
// end; closing that channel tells the worker to quit. A worker publishes
// its error in its own field and then sends one token on the group's
// shared done channel, buffered to hold one token per worker.
//
//	coordinator                      worker w (one per shard)
//	-----------                      ------------------------
//	for each w in busy[1:]:          for end := range w.start:
//	  w.start <- end                   w.err = sc.RunUntil(end)
//	err0 = busy[0].RunUntil(end)       g.done <- struct{}{}
//	receive len(busy)-1 tokens       (start closed: exit)
//	  from g.done
//
// The coordinator receives every token of a window before it goes on, even
// when busy[0] failed, so every busy shard finishes its window and no token
// is left to complete a later barrier early. The channel operations are
// also the happens-before edges that hand shard state (and w.err) between
// the coordinator and the workers.

import (
	"sync"
	"time"
)

// workerGroup owns the workers of one RunUntil call and the completion
// channel they share with the coordinator.
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
// window of a RunUntil call that takes the parallel path, so serial-only
// calls (one core, one shard, nearly-empty queues) never spawn any.
func (f *Fabric) startWorkers() {
	g := &workerGroup{done: make(chan struct{}, len(f.shards))}
	for _, sc := range f.shards {
		w := &fabricWorker{sc: sc, start: make(chan Time, 1)}
		g.workers = append(g.workers, w)
		g.exited.Add(1)
		go w.run(g)
	}
	f.group = g
}

func (w *fabricWorker) run(g *workerGroup) {
	defer g.exited.Done()
	for end := range w.start {
		w.err = w.sc.RunUntil(end)
		g.done <- struct{}{}
	}
}

// stopWorkers terminates the current call's workers, if any started, and
// waits for them to exit. RunUntil defers it.
func (f *Fabric) stopWorkers() {
	if f.group == nil {
		return
	}
	for _, w := range f.group.workers {
		close(w.start)
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
