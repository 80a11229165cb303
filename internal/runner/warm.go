// Warm-start campaign execution: run a shared convergence prefix once,
// snapshot it, and fork every eligible sweep point from the snapshot instead
// of re-simulating the prefix per point. Eligibility is decided by a
// config-prefix hash (core.PrefixHash): a point whose hash differs from the
// prefix's — its parameters shape the warm-up — automatically falls back to
// a cold run through the regular pool.
//
// A fork resumes in place on its snapshot's component graph, so one snapshot
// serves one fork at a time. To fork on several workers, a campaign holds one
// snapshot per lane: lanes beyond the first run their own replica of the
// (deterministic) prefix alongside the first, then all lanes drain one shared
// queue of forks. Determinism is unaffected: a forked run is bit-identical
// to the equivalent cold run by the Snapshotter contract, whichever lane's
// snapshot it forks, and outcomes keep submission order.
package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// WarmRun is one unit of a warm-start campaign.
type WarmRun struct {
	// Name labels the run in outcomes and panic reports.
	Name string
	// Hash is the run's config-prefix hash. The run forks from the campaign
	// snapshot iff it equals WarmConfig.Hash; otherwise Cold executes.
	Hash string
	// Fork resumes the run from a prefix snapshot. Forks of one campaign
	// may run concurrently, but each from its own lane's snapshot: a
	// snapshot is never passed to two Fork calls at once.
	Fork func(ctx context.Context, snap any) (any, error)
	// Cold executes the run from scratch (the fallback, pool-parallel).
	Cold func(ctx context.Context) (any, error)
}

// WarmConfig describes a campaign's shared prefix.
type WarmConfig struct {
	// Hash is the prefix's config hash (core.PrefixHash of the shared
	// configuration and boundary).
	Hash string
	// Prefix executes the shared warm-up and returns its snapshot. It only
	// runs when at least one submitted run is fork-eligible, once per fork
	// lane, possibly concurrently; every call must return an independent
	// snapshot of the same state.
	Prefix func(ctx context.Context) (any, error)
}

// SnapshotCache shares converged prefix snapshots between campaigns: a pool
// configured with WithSnapshots asks the cache for the campaign's prefix
// snapshot instead of always executing the prefix itself, so concurrent
// sweeps sharing a convergence prefix pay for it once. The implementation
// lives with its owner (the job server's LRU, internal/serve); the runner
// only defines the contract.
type SnapshotCache interface {
	// Acquire returns the snapshot stored under hash, running compute to
	// produce it on a miss. hit reports whether the snapshot came from the
	// cache (compute did not run).
	//
	// The snapshot is exclusively held by the caller until release is
	// invoked: forks resume in place on the snapshot's component graph, so
	// only one campaign may fork from it at a time. Concurrent Acquires of
	// the same hash therefore serialise — the first computes, the rest
	// block (or give up when ctx is cancelled) and then hit. release must
	// be called exactly once, and only when err is nil. compute runs at
	// most once per Acquire; the runner starts its replica lanes from it,
	// so only the campaign that pays for a prefix forks on several lanes,
	// and the replicas stay private to that campaign, never cached.
	Acquire(ctx context.Context, hash string, compute func(context.Context) (any, error)) (snap any, hit bool, release func(), err error)
}

// ExecuteWarm executes a warm-start campaign and returns one Outcome per
// run, in submission order. Fork-eligible runs (hash match) fork on up to
// W = min(workers, eligible runs) lanes; the rest fall back to cold runs on
// the pool. A failed or panicking lane-0 prefix demotes every eligible run
// to cold — the campaign degrades to Execute, it never fails wholesale.
func (p *Pool) ExecuteWarm(ctx context.Context, wc WarmConfig, runs []WarmRun) []Outcome {
	outcomes := make([]Outcome, len(runs))
	if len(runs) == 0 {
		return outcomes
	}

	var warmIdx, coldIdx []int
	for i, r := range runs {
		if wc.Prefix != nil && wc.Hash != "" && r.Hash == wc.Hash && r.Fork != nil {
			warmIdx = append(warmIdx, i)
		} else {
			coldIdx = append(coldIdx, i)
		}
	}

	epoch := time.Now()
	if len(warmIdx) > 0 && !p.forkLanes(ctx, epoch, wc, runs, warmIdx, outcomes) {
		// Demote: the prefix could not be produced, every would-be fork
		// runs cold instead.
		coldIdx = append(coldIdx, warmIdx...)
	}

	if len(coldIdx) > 0 {
		coldRuns := make([]Run, len(coldIdx))
		for k, i := range coldIdx {
			coldRuns[k] = Run{Name: runs[i].Name, Do: runs[i].Cold}
		}
		for k, o := range p.Execute(ctx, coldRuns) {
			o.Index = coldIdx[k]
			outcomes[coldIdx[k]] = o
			p.mColdFallbacks.Inc()
		}
	}
	return outcomes
}

// forkLanes executes the warm runs warmIdx into outcomes and reports whether
// lane 0's prefix was produced; when it was not, no warm run has executed.
//
// Lane 0 forks from the campaign snapshot, acquired through the cache when
// one is attached. Lanes 1..W−1 each run their own replica of the prefix,
// but only when lane 0's prefix is being computed anyway (no cache, or a
// cache miss): a replica runs concurrently with it and is never cached, so a
// cache hit keeps one serial lane. Every lane pulls fork indices from one
// shared queue and forks only from its own snapshot. A failed or panicking
// replica drops its lane; replicas wait for lane 0's prefix and drop out
// too if it failed.
func (p *Pool) forkLanes(ctx context.Context, epoch time.Time, wc WarmConfig, runs []WarmRun, warmIdx []int, outcomes []Outcome) bool {
	var next atomic.Int64
	fork := func(snap any) {
		for k := int(next.Add(1)) - 1; k < len(warmIdx); k = int(next.Add(1)) - 1 {
			i := warmIdx[k]
			r := runs[i]
			outcomes[i] = execute(ctx, epoch, i, Run{Name: r.Name, Do: func(ctx context.Context) (any, error) {
				return r.Fork(ctx, snap)
			}})
			if !outcomes[i].Skipped {
				p.mForksServed.Inc()
			}
			p.record(outcomes[i])
		}
	}

	var replicas sync.WaitGroup
	lane0 := make(chan struct{}) // closed once lane 0's prefix outcome is known
	var lane0OK bool
	compute := func(prefixCtx context.Context) (any, error) {
		for l := 1; l < min(p.workers, len(warmIdx)); l++ {
			replicas.Add(1)
			go func() {
				defer replicas.Done()
				snap, err := runPrefix(ctx, wc)
				if err != nil {
					return
				}
				p.mPrefixRuns.Inc()
				<-lane0
				if lane0OK {
					fork(snap)
				}
			}()
		}
		return runPrefix(prefixCtx, wc)
	}

	var snap any
	var err error
	release := func() {}
	if p.snapshots != nil {
		var hit bool
		snap, hit, release, err = p.snapshots.Acquire(ctx, wc.Hash, compute)
		if err == nil && !hit {
			p.mPrefixRuns.Inc()
		}
	} else if snap, err = compute(ctx); err == nil {
		p.mPrefixRuns.Inc()
	}
	lane0OK = err == nil
	close(lane0)
	if lane0OK {
		fork(snap)
		// Only lane 0 forks the cached snapshot: release it before the
		// replica lanes drain, so a concurrent campaign waiting on the same
		// prefix can start as early as possible.
		release()
	}
	replicas.Wait()
	return lane0OK
}

// runPrefix executes the shared prefix with panic isolation.
func runPrefix(ctx context.Context, wc WarmConfig) (snap any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			snap = nil
			err = fmt.Errorf("runner: warm prefix panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return wc.Prefix(ctx)
}
