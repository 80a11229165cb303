package shmem

import "gptpfta/internal/fta"

// Warm-start snapshot support (sim.Snapshotter). The shared PI servo held
// by FTSHMEM is snapshotted separately by its owning node — the region only
// captures the memory words the paper's layout defines.

type ftshmemSnapshot struct {
	offsets    []fta.Reading
	flags      []bool
	adjustLast float64
	hasAdjust  bool
}

// Snapshot implements sim.Snapshotter.
func (s *FTSHMEM) Snapshot() any {
	return &ftshmemSnapshot{
		offsets:    append([]fta.Reading(nil), s.offsets...),
		flags:      append([]bool(nil), s.flags...),
		adjustLast: s.adjustLast,
		hasAdjust:  s.hasAdjust,
	}
}

// Restore implements sim.Snapshotter.
func (s *FTSHMEM) Restore(snap any) {
	sn := snap.(*ftshmemSnapshot)
	copy(s.offsets, sn.offsets)
	copy(s.flags, sn.flags)
	s.adjustLast = sn.adjustLast
	s.hasAdjust = sn.hasAdjust
}

type stshmemSnapshot struct {
	slots  []ClockParams
	active int
}

// Snapshot implements sim.Snapshotter.
func (s *STSHMEM) Snapshot() any {
	return &stshmemSnapshot{
		slots:  append([]ClockParams(nil), s.slots...),
		active: s.active,
	}
}

// Restore implements sim.Snapshotter.
func (s *STSHMEM) Restore(snap any) {
	sn := snap.(*stshmemSnapshot)
	copy(s.slots, sn.slots)
	s.active = sn.active
}
