// Package shmem models the two shared-memory regions of the paper's
// architecture:
//
//   - FTSHMEM: the user-space region a clock-synchronization VM establishes
//     between its M ptp4l instances. It holds the latest M grandmaster
//     offsets, M validity booleans, the adjust_last timestamp implementing
//     the aggregation gate, and the shared PI servo state.
//   - STSHMEM: the hypervisor-provided virtual-PCI region shared between
//     co-located VMs. Clock-synchronization VMs publish clock parameters
//     (a TSC→global-time mapping) into per-VM slots; the active slot
//     defines CLOCK_SYNCTIME for every VM on the node.
package shmem

import (
	"gptpfta/internal/fta"
	"gptpfta/internal/gptp"
	"gptpfta/internal/servo"
)

// FTSHMEM is the fault-tolerance shared memory between M ptp4l instances
// inside one clock-synchronization VM (paper §II-B). All times are on the
// VM's NIC PHC timescale, in nanoseconds. The simulated instances share
// one goroutine (the scheduler running the VM), so the region needs no
// lock; see DESIGN.md, "Single-goroutine ownership".
type FTSHMEM struct {
	domains []int // domain number per slot

	offsets    []fta.Reading
	flags      []bool
	adjustLast float64
	hasAdjust  bool
	staleNS    float64

	pi *servo.PI
}

// NewFTSHMEM creates the region for the given domains. staleNS is the age
// (in PHC ns) beyond which a stored offset no longer counts as fresh —
// a fail-silent grandmaster's slot goes stale after a few missed Syncs.
func NewFTSHMEM(domains []int, staleNS float64, pi *servo.PI) *FTSHMEM {
	offsets := make([]fta.Reading, len(domains))
	for i, d := range domains {
		offsets[i] = fta.Reading{Domain: d}
	}
	return &FTSHMEM{
		domains: append([]int(nil), domains...),
		offsets: offsets,
		flags:   make([]bool, len(domains)),
		staleNS: staleNS,
		pi:      pi,
	}
}

// Domains returns the configured domain numbers in slot order.
func (s *FTSHMEM) Domains() []int {
	return append([]int(nil), s.domains...)
}

// StoreOffset records one grandmaster-offset sample. nowPHC timestamps the
// store for freshness accounting.
func (s *FTSHMEM) StoreOffset(sample gptp.OffsetSample, nowPHC float64) {
	for i, d := range s.domains {
		if d == sample.Domain {
			s.offsets[i] = fta.Reading{Domain: d, OffsetNS: sample.OffsetNS, At: nowPHC, Fresh: true}
			return
		}
	}
}

// StoreOwnDomain refreshes the slot of the domain this VM is grandmaster
// of: by definition its offset to itself is zero while it is emitting.
func (s *FTSHMEM) StoreOwnDomain(domain int, nowPHC float64) {
	s.StoreOffset(gptp.OffsetSample{Domain: domain, OffsetNS: 0}, nowPHC)
}

// AppendReadings appends the M readings, with freshness evaluated at
// nowPHC, to dst, so a caller that reuses one buffer reads the region
// without allocating.
func (s *FTSHMEM) AppendReadings(dst []fta.Reading, nowPHC float64) []fta.Reading {
	n := len(dst)
	dst = append(dst, s.offsets...)
	for i := n; i < len(dst); i++ {
		if dst[i].Fresh && nowPHC-dst[i].At > s.staleNS {
			dst[i].Fresh = false
		}
	}
	return dst
}

// TryAcquireAdjust implements the paper's aggregation gate: the first ptp4l
// instance in synchronization interval s+1 for which
// adjust_last + sync_interval <= now wins and updates adjust_last; every
// other instance's attempt in the same interval fails.
func (s *FTSHMEM) TryAcquireAdjust(nowPHC, syncIntervalNS float64) bool {
	if s.hasAdjust && s.adjustLast+syncIntervalNS > nowPHC {
		return false
	}
	s.adjustLast = nowPHC
	s.hasAdjust = true
	return true
}

// AdjustLast reports the PHC time of the last aggregation, and whether any
// aggregation has happened.
func (s *FTSHMEM) AdjustLast() (float64, bool) {
	return s.adjustLast, s.hasAdjust
}

// SetFlags stores the validity booleans computed during aggregation.
func (s *FTSHMEM) SetFlags(flags []bool) {
	copy(s.flags, flags)
}

// Flags snapshots the validity booleans, indexed in slot order.
func (s *FTSHMEM) Flags() []bool {
	return append([]bool(nil), s.flags...)
}

// Servo returns the shared PI controller.
func (s *FTSHMEM) Servo() *servo.PI { return s.pi }

// Reset clears offsets, flags, the gate and the servo — a rebooting VM
// re-establishes its region from scratch.
func (s *FTSHMEM) Reset() {
	for i := range s.offsets {
		s.offsets[i] = fta.Reading{Domain: s.offsets[i].Domain}
	}
	for i := range s.flags {
		s.flags[i] = false
	}
	s.hasAdjust = false
	s.adjustLast = 0
	s.pi.Reset()
}
