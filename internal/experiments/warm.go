package experiments

import (
	"context"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// The point executor shared by the studies (see DESIGN.md "Warm-state
// snapshots"). Every sweep point runs one form, cold or forked:
//
//	NewSystem → Start → setup → RunFor(boundary) → run(sys, Duration − boundary)
//
// where the boundary sits warmGuard before the study's first divergent event
// (fault injection, chaos action, attack). A forked campaign executes the
// prefix up to the boundary once, from the first point's config, snapshots
// it, and forks every point whose own config-prefix hash (core.PrefixHash)
// matches; a mismatching point — its parameters shape the warm-up — runs the
// cold form instead, counted by the runner's runner_cold_fallbacks. Because
// the cold form splits the timeline at the same boundary, a forked table is
// bit-identical to the cold one by construction.

// warmGuard is the safety margin between the snapshot boundary and the first
// divergent event: the boundary is placed this far before the event so the
// prefix can never execute state the sweep points disagree on.
const warmGuard = 5 * time.Second

// point is one sweep point of a study.
type point[P any] struct {
	name string
	cfg  core.Config
	// setup optionally runs right after Start, before the boundary. It is
	// part of the shared prefix, so it must depend only on cfg, which the
	// prefix hash covers.
	setup func(*core.System)
	// run attaches the point's divergent machinery to a system standing at
	// the boundary, runs the remaining time and collects the result and
	// the system's metrics snapshot.
	run func(sys *core.System, remaining time.Duration) (P, []obs.Metric, error)
}

// campaign is how a study executes its points.
type campaign struct {
	duration time.Duration
	// diverge is the instant of the first divergent event; fault-free
	// studies pass any instant they want the prefix to end near.
	diverge time.Duration
	// plans must all act strictly after the boundary, or there is none.
	plans []*chaos.Plan

	parallel  int
	metrics   *obs.Registry
	snapshots runner.SnapshotCache
}

// boundary is the one rule every study splits its timeline by: warmGuard
// before the first divergent event, or 0 (no prefix) when that is not
// inside the run or some chaos plan acts at or before it.
func (c campaign) boundary() time.Duration {
	b := c.diverge - warmGuard
	if b <= 0 || b >= c.duration {
		return 0
	}
	for _, p := range c.plans {
		if earliest, ok := planEarliest(p); !ok || earliest <= b {
			return 0
		}
	}
	return b
}

// runPoints executes the points and returns their results in order plus the
// last point's metrics snapshot. It forks exactly when a snapshot can be
// reused: the shared prefix is offered when a snapshot cache is attached
// (another campaign may hit it), or when there are several points and every
// one has the first point's prefix hash. Otherwise every point runs cold: a
// lone point would pay a snapshot for nothing, and ExecuteWarm starts its
// cold fallbacks only after the fork lanes finish, so forking a sweep with
// mixed hashes would run its two halves one after the other.
func runPoints[P any](ctx context.Context, c campaign, points []point[P]) ([]P, []obs.Metric, error) {
	if len(points) == 0 {
		return nil, nil, nil
	}
	boundary := c.boundary()
	snaps := make([][]obs.Metric, len(points))
	finish := func(i int, sys *core.System) (any, error) {
		v, ms, err := points[i].run(sys, c.duration-boundary)
		snaps[i] = ms
		return v, err
	}

	runs := make([]runner.WarmRun, len(points))
	shared := boundary > 0 && (c.snapshots != nil || len(points) > 1)
	for i := range points {
		runs[i] = runner.WarmRun{
			Name: points[i].name,
			Hash: core.PrefixHash(points[i].cfg, boundary),
			Fork: func(_ context.Context, snap any) (any, error) {
				sys, err := core.ForkSystem(snap)
				if err != nil {
					return nil, err
				}
				return finish(i, sys)
			},
			Cold: func(context.Context) (any, error) {
				sys, err := prefix(points[i], boundary)
				if err != nil {
					return nil, err
				}
				return finish(i, sys)
			},
		}
		shared = shared && (c.snapshots != nil || runs[i].Hash == runs[0].Hash)
	}
	var wc runner.WarmConfig
	if shared {
		wc.Hash = runs[0].Hash
		wc.Prefix = func(context.Context) (any, error) {
			sys, err := prefix(points[0], boundary)
			if err != nil {
				return nil, err
			}
			return sys.Snapshot(), nil
		}
	}
	pool := runner.New(c.parallel).WithMetrics(c.metrics).WithSnapshots(c.snapshots)
	vals, err := runner.Values[P](pool.ExecuteWarm(ctx, wc, runs))
	if err != nil {
		return nil, nil, err
	}
	return vals, snaps[len(snaps)-1], nil
}

// prefix builds a point's system and runs it, set up, to the boundary.
func prefix[P any](p point[P], boundary time.Duration) (*core.System, error) {
	sys, err := core.NewSystem(p.cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	if p.setup != nil {
		p.setup(sys)
	}
	if boundary > 0 {
		// Guarded: even a zero-length run would fire the t=0 events
		// before the point's machinery attaches.
		if err := sys.RunFor(boundary); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// runOne executes a single-point study through runPoints.
func runOne[P any](c campaign, p point[P]) (P, []obs.Metric, error) {
	vals, ms, err := runPoints(context.Background(), c, []point[P]{p})
	if err != nil {
		var zero P
		return zero, nil, err
	}
	return vals[0], ms, nil
}

// startChaos attaches plan's engine to sys, instrumented with the system's
// metrics, and starts it; observe, when non-nil, sees every fired action.
// A nil plan attaches nothing. The returned stop detaches the engine.
func startChaos(sys *core.System, plan *chaos.Plan, observe func(chaos.Action)) (stop func(), err error) {
	if plan == nil {
		return func() {}, nil
	}
	eng, err := chaos.New(sys.Scheduler(), sys, plan)
	if err != nil {
		return nil, err
	}
	eng.Instrument(sys.Metrics())
	if observe != nil {
		eng.SetActionObserver(observe)
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	return eng.Stop, nil
}

// planEarliest reports the earliest absolute instant at which a chaos plan
// acts. ok is false when any action is anchored relative to the engine's
// start (a periodic action without a Start offset): such a plan fires at
// different instants depending on when the engine attaches, so a warm fork
// cannot reproduce the cold t=0 schedule and the study must run cold.
func planEarliest(p *chaos.Plan) (earliest time.Duration, ok bool) {
	first := true
	for i := range p.Actions {
		a := &p.Actions[i]
		var t time.Duration
		if a.Every > 0 {
			if a.Start <= 0 {
				return 0, false
			}
			t = a.Start.Std()
		} else {
			t = a.At.Std()
		}
		if first || t < earliest {
			earliest = t
			first = false
		}
	}
	return earliest, !first
}
