// Package serve runs experiment campaigns as a service: an HTTP job API
// (cmd/served) over a bounded work queue, fanning jobs across runner pools,
// with a shared LRU cache of converged warm-start snapshots so concurrent
// sweeps that share a convergence prefix pay for it once.
package serve

import (
	"container/list"
	"context"
	"sync"

	"gptpfta/internal/obs"
)

// SnapshotCache is an entry-bounded LRU of converged prefix snapshots keyed by
// core.PrefixHash, implementing runner.SnapshotCache. It provides:
//
//   - single-flight computation: concurrent Acquires of one hash run the
//     prefix once, the rest wait and hit;
//   - exclusive holds: forks resume in place on the snapshot's component
//     graph, so an entry is checked out to exactly one campaign at a time
//     and concurrent campaigns serialise on it;
//   - bounded memory: LRU eviction by entry count, never evicting a held
//     entry.
type SnapshotCache struct {
	maxEntries int

	mu    sync.Mutex
	cond  *sync.Cond
	byKey map[string]*cacheEntry
	lru   *list.List // front = most recently used

	mHits, mMisses, mEvictions *obs.Counter
}

// cacheEntry is one cached snapshot. held covers both states that exclude
// other campaigns: the initial compute (snap not yet set) and a checked-out
// fork sequence.
type cacheEntry struct {
	hash  string
	snap  any
	held  bool
	ready bool // snap is valid (compute finished)
	elem  *list.Element
}

// NewSnapshotCache returns a cache bounded to maxEntries snapshots (<= 0:
// unbounded), instrumented on reg: snapcache_hits / snapcache_misses /
// snapcache_evictions counters and a snapcache_entries gauge. A nil
// registry disables instrumentation.
func NewSnapshotCache(reg *obs.Registry, maxEntries int) *SnapshotCache {
	c := &SnapshotCache{
		maxEntries: maxEntries,
		byKey:      make(map[string]*cacheEntry),
		lru:        list.New(),
		mHits:      reg.Counter("snapcache_hits"),
		mMisses:    reg.Counter("snapcache_misses"),
		mEvictions: reg.Counter("snapcache_evictions"),
	}
	c.cond = sync.NewCond(&c.mu)
	reg.GaugeFunc("snapcache_entries", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.byKey))
	})
	return c
}

// Acquire implements runner.SnapshotCache. On a miss it runs compute (once,
// no matter how many campaigns ask) and stores the snapshot; on a hit the
// cached snapshot is returned without running compute. Either way the entry
// is exclusively held by the caller until release is invoked; concurrent
// Acquires of the same hash block until then, or give up when their ctx is
// cancelled. A failed compute is not cached — the error is returned to the
// computing caller, and one waiter takes over the compute.
func (c *SnapshotCache) Acquire(ctx context.Context, hash string, compute func(context.Context) (any, error)) (snap any, hit bool, release func(), err error) {
	c.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, false, nil, err
		}
		e, ok := c.byKey[hash]
		if !ok {
			// Miss: claim the slot (held, not ready) so concurrent
			// Acquires wait instead of computing a second prefix.
			e = &cacheEntry{hash: hash, held: true}
			c.byKey[hash] = e
			c.mMisses.Inc()
			c.mu.Unlock()

			snap, err := compute(ctx)

			c.mu.Lock()
			if err != nil {
				// Drop the claim; a waiter (if any) retries the compute.
				delete(c.byKey, hash)
				c.cond.Broadcast()
				c.mu.Unlock()
				return nil, false, nil, err
			}
			e.snap = snap
			e.ready = true
			e.elem = c.lru.PushFront(e)
			c.evictLocked()
			c.mu.Unlock()
			return snap, false, c.releaser(e), nil
		}
		if e.ready && !e.held {
			e.held = true
			c.lru.MoveToFront(e.elem)
			c.mHits.Inc()
			c.mu.Unlock()
			return e.snap, true, c.releaser(e), nil
		}
		// Computing or checked out by another campaign: wait for the next
		// release/broadcast, waking early if ctx is cancelled.
		c.waitLocked(ctx)
	}
}

// releaser returns the entry's release func: it returns the snapshot to the
// pool of available entries and wakes waiters. Safe to call once (the
// runner's contract); extra calls are ignored.
func (c *SnapshotCache) releaser(e *cacheEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.held = false
			// The cache may have been over its bound while e was held.
			c.evictLocked()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
}

// waitLocked blocks on the cache condition until the next broadcast or ctx
// cancellation. Called and returns with c.mu held.
func (c *SnapshotCache) waitLocked(ctx context.Context) {
	stop := context.AfterFunc(ctx, func() {
		// Take the lock so the broadcast cannot fire between the waiter's
		// cancellation check and its cond.Wait.
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.cond.Wait()
	stop()
}

// evictLocked drops least-recently-used, unheld entries until the entry
// bound holds. Held entries (computing or checked out) are skipped —
// evicting a snapshot a campaign is forking on would corrupt the fork — so
// the cache can transiently exceed its bound while everything is held.
func (c *SnapshotCache) evictLocked() {
	if c.maxEntries <= 0 {
		return
	}
	for e := c.lru.Back(); e != nil && len(c.byKey) > c.maxEntries; {
		prev := e.Prev()
		entry := e.Value.(*cacheEntry)
		if !entry.held {
			c.lru.Remove(e)
			delete(c.byKey, entry.hash)
			c.mEvictions.Inc()
		}
		e = prev
	}
}

// Len returns the number of cached snapshots (held or not).
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}
