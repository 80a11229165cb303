// Package runner is the experiment execution engine: it fans independent
// simulation runs (seeds, sweep points, scenario variants) across a bounded
// worker pool. Every run builds its own scheduler and sim.Streams from its
// own seed, so runs share no mutable state and the aggregated output of a
// parallel campaign is bit-identical to the sequential one — the pool only
// changes wall-clock time, never results.
//
// Guarantees:
//
//   - Deterministic ordering: Execute returns one Outcome per submitted Run,
//     in submission order, regardless of completion order.
//   - Panic isolation: a panicking run is reported as a failed Outcome (with
//     the stack trace in its error), not a crashed campaign.
//   - Cancellation: when the context is cancelled, in-flight runs finish (a
//     discrete-event simulation is not preemptible) but no further run
//     starts; undispatched runs are marked Skipped with the context error.
//   - Timing: every executed run records its wall-clock duration and start
//     offset, so a campaign can report per-run liveness.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gptpfta/internal/obs"
)

// Run is one independent unit of work: typically a full simulation campaign
// for one seed or one sweep point. Do must be self-contained — it derives
// all randomness from its own seed and touches no state shared with other
// runs.
type Run struct {
	// Name labels the run in outcomes and panic reports ("seed/7",
	// "S=125ms", "stack/unikernel").
	Name string
	// Do executes the run. The context is advisory: long multi-part runs
	// should check ctx.Err() between parts, single simulations may ignore
	// it.
	Do func(ctx context.Context) (any, error)
}

// Outcome is the result of one Run.
type Outcome struct {
	Name  string
	Index int // position in the submitted slice
	// Value is Do's result when Err is nil.
	Value any
	Err   error
	// Panicked reports that Do panicked; Err then carries the recovered
	// value and stack.
	Panicked bool
	// Skipped reports that the run never started because the campaign was
	// cancelled first; Err then carries the context error.
	Skipped bool
	// StartedAt is the run's start offset from Execute's invocation, Wall
	// its execution wall-clock time. Both are zero for skipped runs.
	StartedAt time.Duration
	Wall      time.Duration
}

// Failed reports whether the run produced no usable value.
func (o Outcome) Failed() bool { return o.Err != nil }

// Pool executes runs on a fixed number of workers.
type Pool struct {
	workers int

	// Campaign metrics, resolved once by WithMetrics; nil handles are
	// inert, so Execute records unconditionally. The registry must be the
	// campaign's own (e.g. the CLI's), never a simulation's: outcomes of
	// concurrent runs are recorded from worker goroutines.
	mRuns     *obs.Counter
	mFailed   *obs.Counter
	mPanicked *obs.Counter
	mSkipped  *obs.Counter
	mWall     *obs.Histogram

	// Warm-start campaign accounting (ExecuteWarm).
	mPrefixRuns    *obs.Counter
	mForksServed   *obs.Counter
	mColdFallbacks *obs.Counter

	// snapshots optionally shares converged prefix snapshots between
	// campaigns (WithSnapshots); nil keeps ExecuteWarm's per-campaign
	// prefix execution.
	snapshots SnapshotCache
}

// wallBuckets spans experiment wall times from milliseconds (smoke scales)
// to minutes (full-length campaigns), in seconds.
var wallBuckets = []float64{0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// New returns a pool with the given worker count; n <= 0 selects
// GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// WithMetrics instruments the pool: run counts by outcome class and a
// wall-time histogram, registered with reg. It returns the pool for
// chaining; a nil registry is a no-op.
func (p *Pool) WithMetrics(reg *obs.Registry) *Pool {
	p.mRuns = reg.Counter("runner_runs_total")
	p.mFailed = reg.Counter("runner_runs_failed")
	p.mPanicked = reg.Counter("runner_runs_panicked")
	p.mSkipped = reg.Counter("runner_runs_skipped")
	p.mWall = reg.Histogram("runner_run_wall_seconds", wallBuckets)
	p.mPrefixRuns = reg.Counter("runner_prefix_runs")
	p.mForksServed = reg.Counter("runner_forks_served")
	p.mColdFallbacks = reg.Counter("runner_cold_fallbacks")
	return p
}

// WithSnapshots attaches a shared prefix-snapshot cache: ExecuteWarm
// acquires the campaign's prefix snapshot from the cache (computing it on a
// miss) instead of always executing the prefix itself. A nil cache is a
// no-op. It returns the pool for chaining.
func (p *Pool) WithSnapshots(c SnapshotCache) *Pool {
	p.snapshots = c
	return p
}

// Workers reports the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// record updates the pool's campaign metrics for one outcome. Counter and
// histogram updates are atomic, so workers record concurrently.
func (p *Pool) record(o Outcome) {
	p.mRuns.Inc()
	switch {
	case o.Skipped:
		p.mSkipped.Inc()
	case o.Panicked:
		p.mPanicked.Inc()
	case o.Err != nil:
		p.mFailed.Inc()
	}
	if !o.Skipped {
		p.mWall.Observe(o.Wall.Seconds())
	}
}

// Execute runs every Run and returns their outcomes in submission order.
// It always returns len(runs) outcomes; individual failures (including
// panics and cancellation) are reported per-outcome, never as a partial
// slice.
func (p *Pool) Execute(ctx context.Context, runs []Run) []Outcome {
	outcomes := make([]Outcome, len(runs))
	if len(runs) == 0 {
		return outcomes
	}
	workers := p.workers
	if workers > len(runs) {
		workers = len(runs)
	}

	epoch := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = execute(ctx, epoch, i, runs[i])
				p.record(outcomes[i])
			}
		}()
	}

	next := 0
feed:
	for ; next < len(runs); next++ {
		select {
		case jobs <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Runs never handed to a worker were skipped by cancellation. A worker
	// may also have observed the cancellation after receiving its index;
	// normalise those to the same skipped shape.
	for i := next; i < len(runs); i++ {
		outcomes[i] = Outcome{Name: runs[i].Name, Index: i, Err: ctx.Err(), Skipped: true}
		p.record(outcomes[i])
	}
	return outcomes
}

// execute runs one Run with panic recovery and timing.
func execute(ctx context.Context, epoch time.Time, idx int, r Run) (out Outcome) {
	out = Outcome{Name: r.Name, Index: idx}
	if err := ctx.Err(); err != nil {
		out.Err = err
		out.Skipped = true
		return out
	}
	start := time.Now()
	out.StartedAt = start.Sub(epoch)
	defer func() {
		out.Wall = time.Since(start)
		if rec := recover(); rec != nil {
			out.Panicked = true
			out.Value = nil
			out.Err = fmt.Errorf("runner: run %q panicked: %v\n%s", r.Name, rec, debug.Stack())
		}
	}()
	out.Value, out.Err = r.Do(ctx)
	return out
}

// Values unwraps every outcome's value as T, in submission order, stopping
// at the first failed run or type mismatch.
func Values[T any](outcomes []Outcome) ([]T, error) {
	vals := make([]T, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("run %q: %w", o.Name, o.Err)
		}
		v, ok := o.Value.(T)
		if !ok {
			return nil, fmt.Errorf("run %q: value is %T, want %T", o.Name, o.Value, *new(T))
		}
		vals = append(vals, v)
	}
	return vals, nil
}
