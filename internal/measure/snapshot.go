package measure

import (
	"maps"
	"time"
)

// Warm-start snapshot support (sim.Snapshotter). The collector restores
// every derived and windowed quantity from the snapshot — open collect
// windows, the sample series, and the per-path latency extrema — so a fork
// never inherits measurement state accumulated after the snapshot point.
// Windows hold replies by value, so copying a window's slice copies them.

type collectorSnapshot struct {
	collectorState
	windows []pendingWindow
	samples []Sample
	pathMin map[string]time.Duration
	pathMax map[string]time.Duration
}

func copyWindows(src []pendingWindow) []pendingWindow {
	out := make([]pendingWindow, len(src))
	for i := range src {
		out[i] = pendingWindow{seq: src[i].seq, open: src[i].open}
		if len(src[i].replies) > 0 {
			out[i].replies = append([]Reply(nil), src[i].replies...)
		}
	}
	return out
}

// Snapshot implements sim.Snapshotter.
func (c *Collector) Snapshot() any {
	return &collectorSnapshot{
		collectorState: c.collectorState,
		windows:        copyWindows(c.windows),
		samples:        append([]Sample(nil), c.samples...),
		pathMin:        maps.Clone(c.pathMin),
		pathMax:        maps.Clone(c.pathMax),
	}
}

// Restore implements sim.Snapshotter. The samples slice is rebuilt on a
// fresh backing array every time: Samples() hands out views of the internal
// buffer, and results collected from an earlier fork must not be overwritten
// by this one.
func (c *Collector) Restore(snap any) {
	sn := snap.(*collectorSnapshot)
	c.collectorState = sn.collectorState
	c.windows = copyWindows(sn.windows)
	c.times = c.times[:0]
	c.samples = append([]Sample(nil), sn.samples...)
	c.pathMin = maps.Clone(sn.pathMin)
	c.pathMax = maps.Clone(sn.pathMax)
}

// Snapshot implements sim.Snapshotter. Registered-but-unseen paths are
// captured too.
func (lt *LatencyTracker) Snapshot() any { return append([]pathExtrema(nil), lt.paths...) }

// Restore implements sim.Snapshotter. Paths registered since the snapshot
// read as unobserved.
func (lt *LatencyTracker) Restore(snap any) {
	clear(lt.paths)
	copy(lt.paths, snap.([]pathExtrema))
}

// Snapshot implements sim.Snapshotter.
func (a *Agent) Snapshot() any {
	st := a.agentState
	return &st
}

// Restore implements sim.Snapshotter.
func (a *Agent) Restore(snap any) { a.agentState = *snap.(*agentState) }
