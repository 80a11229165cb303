package ptp4l

import "gptpfta/internal/sim"

// Warm-start snapshot support (sim.Snapshotter). The stack composes the
// snapshots of everything it owns — per-domain slaves, the pdelay endpoint,
// the grandmaster role, the FTSHMEM region and its shared PI servo, and the
// running summary statistics — so a node-level restore needs one call per
// VM. Observability counters live in the experiment's obs.Registry and are
// restored by its own snapshot.

// snapshot deep-copies the running summary windows.
func (st *Statistics) snapshot() Statistics {
	c := *st
	c.perDomain = append([]OffsetStats(nil), st.perDomain...)
	return c
}

func (st *Statistics) restore(sn Statistics) {
	copy(st.perDomain, sn.perDomain)
	st.aggregate, st.freqPPB = sn.aggregate, sn.freqPPB
}

// stackSnapshot captures one extended-ptp4l stack.
type stackSnapshot struct {
	stackState
	lastFlags []bool
	stats     Statistics
	parts     []any
}

// Snapshot implements sim.Snapshotter.
func (s *Stack) Snapshot() any {
	return &stackSnapshot{
		stackState: s.stackState,
		lastFlags:  append([]bool(nil), s.lastFlags...),
		stats:      s.stats.snapshot(),
		parts:      sim.SnapshotAll(s.parts),
	}
}

// Restore implements sim.Snapshotter.
func (s *Stack) Restore(snap any) {
	sn := snap.(*stackSnapshot)
	s.stackState = sn.stackState
	s.lastFlags = append(s.lastFlags[:0], sn.lastFlags...)
	s.stats.restore(sn.stats)
	sim.RestoreAll(s.parts, sn.parts)
}
