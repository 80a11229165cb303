package ptp4l

import "gptpfta/internal/sim"

// Warm-start snapshot support (sim.Snapshotter). The stack composes the
// snapshots of everything it owns — per-domain slaves, the pdelay endpoint,
// the grandmaster role, the FTSHMEM region and its shared PI servo, and the
// running summary statistics — so a node-level restore needs one call per
// VM. Observability counters live in the experiment's obs.Registry and are
// restored by its own snapshot.

// statisticsSnapshot deep-copies the running summary windows.
type statisticsSnapshot struct {
	perDomain map[int]OffsetStats
	aggregate OffsetStats
	freqPPB   OffsetStats
}

func (st *Statistics) snapshot() *statisticsSnapshot {
	sn := &statisticsSnapshot{
		perDomain: make(map[int]OffsetStats, len(st.perDomain)),
		aggregate: st.aggregate,
		freqPPB:   st.freqPPB,
	}
	for d, s := range st.perDomain {
		sn.perDomain[d] = *s
	}
	return sn
}

func (st *Statistics) restore(sn *statisticsSnapshot) {
	st.perDomain = make(map[int]*OffsetStats, len(sn.perDomain))
	for d, s := range sn.perDomain {
		s := s
		st.perDomain[d] = &s
	}
	st.aggregate = sn.aggregate
	st.freqPPB = sn.freqPPB
}

// stackSnapshot captures one extended-ptp4l stack.
type stackSnapshot struct {
	stackState
	lastFlags []bool
	stats     *statisticsSnapshot
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
