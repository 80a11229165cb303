package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptpfta/internal/obs"
)

// stubCache is a minimal SnapshotCache that records the call sequence.
type stubCache struct {
	mu       sync.Mutex
	store    map[string]any
	acquires int
	computes int
	released bool
	// computeCtx, when set, derives the context compute runs under.
	computeCtx func(context.Context) context.Context
}

func newStubCache() *stubCache { return &stubCache{store: map[string]any{}} }

func (c *stubCache) Acquire(ctx context.Context, hash string, compute func(context.Context) (any, error)) (any, bool, func(), error) {
	c.mu.Lock()
	c.acquires++
	snap, ok := c.store[hash]
	c.mu.Unlock()
	release := func() {
		c.mu.Lock()
		c.released = true
		c.mu.Unlock()
	}
	if ok {
		return snap, true, release, nil
	}
	c.mu.Lock()
	c.computes++
	c.mu.Unlock()
	if c.computeCtx != nil {
		ctx = c.computeCtx(ctx)
	}
	snap, err := compute(ctx)
	if err != nil {
		return nil, false, nil, err
	}
	c.mu.Lock()
	c.store[hash] = snap
	c.mu.Unlock()
	return snap, false, release, nil
}

func counterValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestExecuteWarmSharedCache: with WithSnapshots, the prefix is produced
// through the cache — computed on the first campaign, reused (hit, no
// prefix re-run) on the second — and runner_prefix_runs counts only the
// actual prefix executions.
func TestExecuteWarmSharedCache(t *testing.T) {
	cache := newStubCache()
	reg := obs.NewRegistry()
	pool := New(1).WithMetrics(reg).WithSnapshots(cache)

	prefixRuns := 0
	wc := WarmConfig{Hash: "h", Prefix: func(context.Context) (any, error) {
		prefixRuns++
		return "snapshot", nil
	}}
	runs := []WarmRun{{
		Name: "warm",
		Hash: "h",
		Fork: func(_ context.Context, snap any) (any, error) { return "fork:" + snap.(string), nil },
		Cold: func(context.Context) (any, error) { return "cold", nil },
	}}

	for campaign := 0; campaign < 2; campaign++ {
		vals, err := Values[string](pool.ExecuteWarm(context.Background(), wc, runs))
		if err != nil {
			t.Fatalf("campaign %d: %v", campaign, err)
		}
		if vals[0] != "fork:snapshot" {
			t.Fatalf("campaign %d: %q", campaign, vals[0])
		}
	}
	if prefixRuns != 1 {
		t.Fatalf("prefix ran %d times, want 1 (second campaign hits the cache)", prefixRuns)
	}
	if cache.acquires != 2 || cache.computes != 1 {
		t.Fatalf("acquires=%d computes=%d, want 2/1", cache.acquires, cache.computes)
	}
	if v := counterValue(reg, "runner_prefix_runs"); v != 1 {
		t.Fatalf("runner_prefix_runs = %v, want 1", v)
	}
	if v := counterValue(reg, "runner_forks_served"); v != 2 {
		t.Fatalf("runner_forks_served = %v, want 2", v)
	}
}

// TestExecuteWarmReleaseBeforeCold pins the hold window: the cache entry is
// released after lane 0's forks, before the cold fallbacks fan out — a
// concurrent campaign waiting on the prefix is not blocked behind unrelated
// cold work.
func TestExecuteWarmReleaseBeforeCold(t *testing.T) {
	cache := newStubCache()
	pool := New(1).WithSnapshots(cache)
	releasedAtCold := false
	wc := WarmConfig{Hash: "h", Prefix: func(context.Context) (any, error) { return "snap", nil }}
	runs := []WarmRun{
		{
			Name: "warm", Hash: "h",
			Fork: func(context.Context, any) (any, error) { return "fork", nil },
			Cold: func(context.Context) (any, error) { return "cold", nil },
		},
		{
			Name: "mismatch", Hash: "other",
			Fork: func(context.Context, any) (any, error) { return "fork", nil },
			Cold: func(context.Context) (any, error) {
				cache.mu.Lock()
				releasedAtCold = cache.released
				cache.mu.Unlock()
				return "cold", nil
			},
		},
	}
	vals, err := Values[string](pool.ExecuteWarm(context.Background(), wc, runs))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != "fork" || vals[1] != "cold" {
		t.Fatalf("outcomes %v", vals)
	}
	if !releasedAtCold {
		t.Fatal("snapshot still held while cold fallbacks ran")
	}
}

// TestExecuteWarmCacheFailureDemotes: a failing cache/prefix demotes every
// eligible run to its cold path instead of failing the campaign.
func TestExecuteWarmCacheFailureDemotes(t *testing.T) {
	cache := newStubCache()
	reg := obs.NewRegistry()
	pool := New(1).WithMetrics(reg).WithSnapshots(cache)
	wc := WarmConfig{Hash: "h", Prefix: func(context.Context) (any, error) {
		return nil, errors.New("no convergence")
	}}
	runs := []WarmRun{{
		Name: "warm", Hash: "h",
		Fork: func(context.Context, any) (any, error) { return "fork", nil },
		Cold: func(context.Context) (any, error) { return "cold", nil },
	}}
	vals, err := Values[string](pool.ExecuteWarm(context.Background(), wc, runs))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != "cold" {
		t.Fatalf("demoted run returned %q, want cold", vals[0])
	}
	if v := counterValue(reg, "runner_prefix_runs"); v != 0 {
		t.Fatalf("runner_prefix_runs = %v after failed prefix", v)
	}
}

// snapshot is a lane's prefix snapshot in the lane tests: a distinct
// pointer per Prefix call, flagged while a Fork uses it.
type snapshot struct {
	id    int
	inUse atomic.Bool
}

// laneCampaign builds n fork-eligible runs whose Fork fails if its snapshot
// is already in use by another Fork, and a Prefix that returns a fresh
// snapshot per call, counted in prefixes.
func laneCampaign(n int, prefixes *atomic.Int32, fork func(i int, snap *snapshot) (any, error)) (WarmConfig, []WarmRun) {
	wc := WarmConfig{Hash: "h", Prefix: func(context.Context) (any, error) {
		return &snapshot{id: int(prefixes.Add(1))}, nil
	}}
	runs := make([]WarmRun, n)
	for i := range runs {
		runs[i] = WarmRun{
			Name: fmt.Sprintf("run/%d", i),
			Hash: "h",
			Fork: func(_ context.Context, s any) (any, error) {
				snap := s.(*snapshot)
				if !snap.inUse.CompareAndSwap(false, true) {
					return nil, fmt.Errorf("snapshot %d forked twice at once", snap.id)
				}
				defer snap.inUse.Store(false)
				return fork(i, snap)
			},
			Cold: func(context.Context) (any, error) { return nil, errors.New("cold fallback") },
		}
	}
	return wc, runs
}

// TestExecuteWarmLanesConcurrent: with two workers, two forks are in flight
// at once — so, by the in-use flag, from two distinct lane snapshots — and
// the prefix runs once per lane.
func TestExecuteWarmLanesConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	var prefixes, arrived atomic.Int32
	both := make(chan struct{})
	wc, runs := laneCampaign(2, &prefixes, func(_ int, snap *snapshot) (any, error) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return snap.id, nil
		case <-time.After(10 * time.Second):
			return nil, errors.New("no second fork in flight")
		}
	})
	if _, err := Values[int](New(2).WithMetrics(reg).ExecuteWarm(context.Background(), wc, runs)); err != nil {
		t.Fatal(err)
	}
	if n := prefixes.Load(); n != 2 {
		t.Fatalf("prefix ran %d times, want 2 (one per lane)", n)
	}
	if v := counterValue(reg, "runner_prefix_runs"); v != 2 {
		t.Fatalf("runner_prefix_runs = %v, want 2 (replicas count)", v)
	}
	if v := counterValue(reg, "runner_forks_served"); v != 2 {
		t.Fatalf("runner_forks_served = %v, want 2", v)
	}
}

// TestExecuteWarmLanesBounded: the lane count is min(workers, eligible
// runs) — ineligible runs and idle workers buy no replica.
func TestExecuteWarmLanesBounded(t *testing.T) {
	var prefixes atomic.Int32
	wc, runs := laneCampaign(3, &prefixes, func(i int, _ *snapshot) (any, error) { return i, nil })
	for i := 0; i < 2; i++ {
		runs = append(runs, WarmRun{
			Name: fmt.Sprintf("mismatch/%d", i),
			Hash: "other",
			Cold: func(context.Context) (any, error) { return -1, nil },
		})
	}
	if _, err := Values[int](New(8).ExecuteWarm(context.Background(), wc, runs)); err != nil {
		t.Fatal(err)
	}
	if n := prefixes.Load(); n != 3 {
		t.Fatalf("prefix ran %d times, want 3 (one per eligible run)", n)
	}
}

// TestExecuteWarmReplicaFailureDropsLane: a replica prefix that errors or
// panics removes only its own lane; lane 0 serves every fork and nothing
// falls back cold. The stub cache marks lane 0's prefix through the context
// it computes under.
func TestExecuteWarmReplicaFailureDropsLane(t *testing.T) {
	type lane0Key struct{}
	cache := newStubCache()
	cache.computeCtx = func(ctx context.Context) context.Context {
		return context.WithValue(ctx, lane0Key{}, true)
	}
	reg := obs.NewRegistry()
	var replicas atomic.Int32
	lane0 := &snapshot{}
	wc, runs := laneCampaign(6, new(atomic.Int32), func(i int, snap *snapshot) (any, error) {
		if snap != lane0 {
			return nil, fmt.Errorf("run %d forked from a failed replica", i)
		}
		return i, nil
	})
	wc.Prefix = func(ctx context.Context) (any, error) {
		if ctx.Value(lane0Key{}) != nil {
			return lane0, nil
		}
		if replicas.Add(1) == 1 {
			return nil, errors.New("replica diverged")
		}
		panic("replica panicked")
	}
	if _, err := Values[int](New(3).WithMetrics(reg).WithSnapshots(cache).ExecuteWarm(context.Background(), wc, runs)); err != nil {
		t.Fatal(err)
	}
	if n := replicas.Load(); n != 2 {
		t.Fatalf("%d replicas ran, want 2", n)
	}
	if v := counterValue(reg, "runner_forks_served"); v != 6 {
		t.Fatalf("runner_forks_served = %v, want 6", v)
	}
	if v := counterValue(reg, "runner_cold_fallbacks"); v != 0 {
		t.Fatalf("runner_cold_fallbacks = %v, want 0", v)
	}
	if v := counterValue(reg, "runner_prefix_runs"); v != 1 {
		t.Fatalf("runner_prefix_runs = %v, want 1 (failed replicas paid nothing usable)", v)
	}
	if len(cache.store) != 1 || cache.store["h"] != lane0 {
		t.Fatalf("cache holds %v, want only lane 0's snapshot", cache.store)
	}
}

// TestExecuteWarmCacheHitIsSerial: a snapshot served from the cache runs no
// replica, so its forks run one at a time on the single lane (two at once
// would trip the snapshot's in-use flag).
func TestExecuteWarmCacheHitIsSerial(t *testing.T) {
	cache := newStubCache()
	cached := &snapshot{}
	cache.store["h"] = cached
	var prefixes atomic.Int32
	wc, runs := laneCampaign(4, &prefixes, func(i int, snap *snapshot) (any, error) {
		if snap != cached {
			return nil, fmt.Errorf("run %d did not fork the cached snapshot", i)
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if _, err := Values[int](New(4).WithSnapshots(cache).ExecuteWarm(context.Background(), wc, runs)); err != nil {
		t.Fatal(err)
	}
	if n := prefixes.Load(); n != 0 {
		t.Fatalf("prefix ran %d times on a cache hit, want 0", n)
	}
}

// TestExecuteWarmLanesKeepOrder: forks finishing out of order across lanes,
// mixed with cold fallbacks, still yield outcomes in submission order.
func TestExecuteWarmLanesKeepOrder(t *testing.T) {
	wc, runs := laneCampaign(6, new(atomic.Int32), func(i int, _ *snapshot) (any, error) {
		time.Sleep(time.Duration(6-i) * time.Millisecond)
		return fmt.Sprintf("fork/%d", i), nil
	})
	for _, i := range []int{1, 4} {
		i := i
		runs[i].Hash = "other"
		runs[i].Cold = func(context.Context) (any, error) { return fmt.Sprintf("cold/%d", i), nil }
	}
	outcomes := New(3).ExecuteWarm(context.Background(), wc, runs)
	vals, err := Values[string](outcomes)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		want := fmt.Sprintf("fork/%d", i)
		if i == 1 || i == 4 {
			want = fmt.Sprintf("cold/%d", i)
		}
		if o.Index != i || o.Name != runs[i].Name || vals[i] != want {
			t.Fatalf("outcome %d = {Index %d, Name %q, Value %q}, want {%d, %q, %q}",
				i, o.Index, o.Name, vals[i], i, runs[i].Name, want)
		}
	}
}

// TestExecuteWarmCancelledForksNotServed: forks skipped because the
// campaign was cancelled after the prefix never ran, so they are counted as
// skipped runs, not as forks served.
func TestExecuteWarmCancelledForksNotServed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	forked := false
	wc, runs := laneCampaign(3, new(atomic.Int32), func(int, *snapshot) (any, error) {
		forked = true
		return nil, nil
	})
	prefix := wc.Prefix
	wc.Prefix = func(ctx context.Context) (any, error) {
		cancel()
		return prefix(ctx)
	}
	for _, o := range New(1).WithMetrics(reg).ExecuteWarm(ctx, wc, runs) {
		if !o.Skipped {
			t.Fatalf("run %q not skipped after cancellation", o.Name)
		}
	}
	if forked {
		t.Fatal("a fork ran after cancellation")
	}
	if v := counterValue(reg, "runner_forks_served"); v != 0 {
		t.Fatalf("runner_forks_served = %v, want 0 (no fork executed)", v)
	}
	if v := counterValue(reg, "runner_runs_skipped"); v != 3 {
		t.Fatalf("runner_runs_skipped = %v, want 3", v)
	}
}
