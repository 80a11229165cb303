package ptp4l

import "gptpfta/internal/sim"

// Warm-start snapshot support (sim.Snapshotter). The stack composes the
// snapshots of everything it owns — per-domain slaves, the pdelay endpoint,
// the grandmaster role, and the FTSHMEM region and its shared PI servo — so
// a node-level restore needs one call per VM. The stack's offset and
// aggregation counts are observability metrics: they live in the
// experiment's obs.Registry and are restored by its own snapshot.

// stackSnapshot captures one extended-ptp4l stack.
type stackSnapshot struct {
	stackState
	lastFlags []bool
	parts     []any
}

// Snapshot implements sim.Snapshotter.
func (s *Stack) Snapshot() any {
	return &stackSnapshot{
		stackState: s.stackState,
		lastFlags:  append([]bool(nil), s.lastFlags...),
		parts:      sim.SnapshotAll(s.parts),
	}
}

// Restore implements sim.Snapshotter.
func (s *Stack) Restore(snap any) {
	sn := snap.(*stackSnapshot)
	s.stackState = sn.stackState
	s.lastFlags = append(s.lastFlags[:0], sn.lastFlags...)
	sim.RestoreAll(s.parts, sn.parts)
}
