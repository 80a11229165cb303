package serve

import (
	"context"
	"errors"

	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptpfta/internal/obs"
)

func counterValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestCacheSingleFlight is the acceptance property: N concurrent Acquires
// of one hash run compute exactly once; everybody gets the same snapshot.
func TestCacheSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewSnapshotCache(reg, 4)
	var computes atomic.Int64
	snapshot := &struct{ x int }{x: 99}

	const n = 8
	var wg sync.WaitGroup
	got := make([]any, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, _, release, err := c.Acquire(context.Background(), "h1", func(context.Context) (any, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return snapshot, nil
			})
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			got[i] = snap
			release()
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, g := range got {
		if g != snapshot {
			t.Fatalf("acquire %d got %v", i, g)
		}
	}
	if h := counterValue(reg, "snapcache_hits"); h != n-1 {
		t.Fatalf("hits = %v, want %d", h, n-1)
	}
	if m := counterValue(reg, "snapcache_misses"); m != 1 {
		t.Fatalf("misses = %v, want 1", m)
	}
}

// TestCacheExclusiveHold pins the fork-safety contract: while one caller
// holds an entry, a second Acquire of the same hash blocks until release.
func TestCacheExclusiveHold(t *testing.T) {
	c := NewSnapshotCache(nil, 4)
	_, _, release, err := c.Acquire(context.Background(), "h1", func(context.Context) (any, error) {
		return "snap", nil
	})
	if err != nil {
		t.Fatal(err)
	}

	acquired := make(chan struct{})
	go func() {
		_, hit, release2, err := c.Acquire(context.Background(), "h1", nil)
		if err != nil || !hit {
			t.Errorf("second acquire: hit=%v err=%v", hit, err)
		}
		close(acquired)
		release2()
	}()

	select {
	case <-acquired:
		t.Fatal("second acquire proceeded while the entry was held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("second acquire never woke after release")
	}
}

// TestCacheWaiterCancellation: a waiter blocked on a held entry honours its
// context.
func TestCacheWaiterCancellation(t *testing.T) {
	c := NewSnapshotCache(nil, 4)
	_, _, release, err := c.Acquire(context.Background(), "h1", func(context.Context) (any, error) {
		return "snap", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Acquire(ctx, "h1", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want deadline error, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter never returned")
	}
}

// TestCacheFailedComputeRetries: a failed compute is not cached, and the
// next Acquire retries it.
func TestCacheFailedComputeRetries(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewSnapshotCache(reg, 4)
	boom := errors.New("converge failed")
	if _, _, _, err := c.Acquire(context.Background(), "h1", func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want compute error, got %v", err)
	}
	snap, hit, release, err := c.Acquire(context.Background(), "h1", func(context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || hit || snap != "ok" {
		t.Fatalf("retry: snap=%v hit=%v err=%v", snap, hit, err)
	}
	release()
	if m := counterValue(reg, "snapcache_misses"); m != 2 {
		t.Fatalf("misses = %v, want 2 (failure counted too)", m)
	}
}

// TestCacheLRUEviction: the entry bound evicts the least recently used
// unheld snapshot.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewSnapshotCache(reg, 2)
	for _, h := range []string{"a", "b", "c"} {
		h := h
		_, _, release, err := c.Acquire(context.Background(), h, func(context.Context) (any, error) {
			return "snap-" + h, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if e := counterValue(reg, "snapcache_evictions"); e != 1 {
		t.Fatalf("evictions = %v, want 1", e)
	}
	// "a" was the LRU victim: acquiring it again recomputes...
	var computed bool
	_, hit, release, err := c.Acquire(context.Background(), "a", func(context.Context) (any, error) {
		computed = true
		return "snap-a2", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if hit || !computed {
		t.Fatal("evicted entry served from cache")
	}
	// ...while "c" (recently used) is still cached.
	_, hit, release, err = c.Acquire(context.Background(), "c", nil)
	if err != nil || !hit {
		t.Fatalf("live entry missed: hit=%v err=%v", hit, err)
	}
	release()
}

// TestCacheNeverEvictsHeld: an over-bounds cache keeps held entries alive
// until release.
func TestCacheNeverEvictsHeld(t *testing.T) {
	c := NewSnapshotCache(nil, 1)
	_, _, releaseA, err := c.Acquire(context.Background(), "a", func(context.Context) (any, error) {
		return "snap-a", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Insert "b" while "a" is held: the cache is over its entry bound but
	// must not evict the held entry.
	_, _, releaseB, err := c.Acquire(context.Background(), "b", func(context.Context) (any, error) {
		return "snap-b", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	releaseB()
	if n := c.Len(); n < 1 {
		t.Fatalf("len = %d", n)
	}
	// "a" must still be there: re-acquiring after release hits.
	releaseA()
	_, hit, release, err := c.Acquire(context.Background(), "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if !hit {
		t.Fatal("held entry was evicted")
	}
}
