package sim

// Per-scheduler free lists. A scheduler is run by one goroutine at a time
// (a shard worker or the coordinator, never both at once), so state keyed
// by the scheduler needs no lock: it is the home of the recycled objects of
// everything built on that scheduler. Objects are never snapshotted and
// their identity is never observable to the simulation, so which list an
// object returns to cannot change a result.

// maxFree bounds a free list. An object released on one shard and taken on
// another (a measurement reply crossing the fabric) would otherwise pile up
// on the releasing side for ever; past the bound it is left to the garbage
// collector.
const maxFree = 1024

// FreeList is a LIFO list of recycled *T with traffic counters, owned by
// the goroutine running one scheduler (see Local).
type FreeList[T any] struct {
	free             []*T
	gets, news, puts uint64
}

// Get returns a zeroed *T, recycled when one is available.
func (l *FreeList[T]) Get() *T {
	l.gets++
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	l.news++
	return new(T)
}

// Put zeroes x and keeps it for the next Get. The caller must hold no
// other reference to x.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.puts++
	if len(l.free) < maxFree {
		l.free = append(l.free, x)
	}
}

// Stats reports the list's traffic: Get calls, Gets that allocated, and
// Put calls.
func (l *FreeList[T]) Stats() (gets, news, puts uint64) { return l.gets, l.news, l.puts }

// Local returns sched's instance of T, creating a zero T on first use: the
// per-scheduler (hence per-goroutine) state of the layers above the kernel,
// such as netsim's frame free list. Call it when building a component and
// keep the pointer; the lookup is a scan.
func Local[T any](sched *Scheduler) *T {
	for _, x := range sched.locals {
		if p, ok := x.(*T); ok {
			return p
		}
	}
	p := new(T)
	sched.locals = append(sched.locals, p)
	return p
}
