package gptp

import "fmt"

// OffsetSample is one grandmaster-offset measurement delivered to the
// extended ptp4l instance, which stores it into FTSHMEM.
type OffsetSample struct {
	Domain int
	// OffsetNS = local receive timestamp − (preciseOrigin + correction +
	// meanLinkDelay): positive means the local PHC is ahead of the GM.
	OffsetNS float64
	// PreciseOrigin is the GM transmit timestamp from the FollowUp.
	PreciseOrigin float64
	// Correction is the accumulated path correction.
	Correction float64
	// RxTS is the local hardware receive timestamp of the Sync.
	RxTS float64
	// RateRatio is the cumulative GM-to-local rate ratio.
	RateRatio  float64
	GMIdentity string
	Seq        uint16
}

// Slave computes grandmaster offsets for one domain on an end-station NIC.
// It matches two-step Sync/FollowUp pairs and subtracts the NIC port's
// measured mean link delay.
type Slave struct {
	domain    int
	linkDelay *LinkDelay
	msgs      *payloads
	onOffset  func(OffsetSample)
	slaveState
}

// slaveState is the slave's state, copied whole by Snapshot.
type slaveState struct {
	pending seqRing[float64] // receive timestamps of unmatched Syncs
	matched uint64
}

// NewSlave creates a slave for the given domain. linkDelay is the NIC
// port's pdelay endpoint; onOffset receives each completed measurement.
func NewSlave(domain int, linkDelay *LinkDelay, onOffset func(OffsetSample)) *Slave {
	return &Slave{
		domain:    domain,
		linkDelay: linkDelay,
		msgs:      linkDelay.msgs,
		onOffset:  onOffset,
	}
}

// Domain reports the slave's gPTP domain.
func (s *Slave) Domain() int { return s.domain }

// Matched reports how many Sync/FollowUp pairs completed.
func (s *Slave) Matched() uint64 { return s.matched }

// HandleSync records the receive timestamp of a Sync for this domain. In
// one-step operation the measurement completes immediately.
func (s *Slave) HandleSync(m *Sync, rxTS float64) {
	if m.Domain != s.domain {
		return
	}
	if m.OneStep {
		delay := s.linkDelay.DelayOrDefault(0)
		s.matched++
		if s.onOffset != nil {
			s.onOffset(OffsetSample{
				Domain:        s.domain,
				OffsetNS:      rxTS - m.Origin - m.Correction - delay,
				PreciseOrigin: m.Origin,
				Correction:    m.Correction,
				RxTS:          rxTS,
				RateRatio:     m.RateRatio,
				GMIdentity:    m.GMIdentity,
				Seq:           m.Seq,
			})
		}
		return
	}
	*s.pending.add(m.Seq) = rxTS
}

// HandleFollowUp completes a measurement if the matching Sync was seen. It
// consumes m: a FollowUp taken off the wire is recycled on return, so the
// caller must not use it afterwards.
func (s *Slave) HandleFollowUp(m *FollowUp) {
	defer s.msgs.followUps.Put(m)
	if m.Domain != s.domain {
		return
	}
	p := s.pending.get(m.Seq)
	if p == nil {
		return // Sync lost (deadline miss upstream) or arrived out of order
	}
	rxTS := *p
	s.pending.remove(m.Seq)
	delay := s.linkDelay.DelayOrDefault(0)
	offset := rxTS - m.PreciseOrigin - m.Correction - delay
	s.matched++
	if s.onOffset != nil {
		s.onOffset(OffsetSample{
			Domain:        s.domain,
			OffsetNS:      offset,
			PreciseOrigin: m.PreciseOrigin,
			Correction:    m.Correction,
			RxTS:          rxTS,
			RateRatio:     m.RateRatio,
			GMIdentity:    m.GMIdentity,
			Seq:           m.Seq,
		})
	}
}

// String describes the slave for diagnostics.
func (s *Slave) String() string {
	return fmt.Sprintf("slave(domain=%d matched=%d)", s.domain, s.matched)
}
