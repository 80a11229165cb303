// Package gptp implements the subset of IEEE 802.1AS (gPTP) that the
// paper's testbed exercises: two-step Sync/FollowUp propagation over
// statically configured (external port configuration, no BMCA) per-domain
// spanning trees, peer-delay (Pdelay) link-delay measurement on every link,
// time-aware bridge relaying with residence-time accumulation in the
// correction field, and end-station grandmaster-offset computation.
//
// Timestamps are nanoseconds on the owning device's PHC timescale and are
// carried as float64, preserving the sub-nanosecond correction-field
// resolution of the real protocol.
package gptp

import (
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// MulticastAddr is the link-local gPTP destination. Frames carrying these
// payloads are consumed and regenerated by every time-aware system; they are
// never bridged generically.
const MulticastAddr netsim.Address = "mc/gptp"

// Sync is a gPTP Sync event message. In two-step operation (the paper's
// i210 testbed) the precise origin timestamp travels in the subsequent
// FollowUp; in one-step operation (permitted by IEEE 802.1AS-2020) the
// hardware inserts the origin timestamp and correction into the Sync
// itself, and relays update the correction field on the fly.
type Sync struct {
	Domain int
	Seq    uint16

	// One-step fields; meaningful only when OneStep is true.
	OneStep    bool
	Origin     float64 // precise origin timestamp, ns
	Correction float64 // accumulated path correction, ns
	RateRatio  float64
	GMIdentity string
}

// ClonePayload implements netsim.PayloadCloner: a Sync is mutated after its
// frame is scheduled (the origin timestamp is written at the master's ETF
// launch instant, the correction field at a one-step relay's egress
// instant), so warm-start snapshots must deep-copy it. The recycled
// messages (see payloads) are deep-copied too; an Announce is immutable
// once scheduled and is shared.
func (s *Sync) ClonePayload() any {
	c := *s
	return &c
}

// FollowUp carries the precise origin timestamp of the matching Sync, the
// accumulated correction field (upstream link delays plus bridge residence
// times), and the cumulative rate ratio relative to the grandmaster.
type FollowUp struct {
	Domain        int
	Seq           uint16
	PreciseOrigin float64 // GM timestamp of the Sync, ns
	Correction    float64 // accumulated path correction, ns
	RateRatio     float64 // cumulative GM-to-local rate ratio
	GMIdentity    string
}

// ClonePayload implements netsim.PayloadCloner: a FollowUp is recycled
// once received, so a warm-start snapshot must hold its own copy of any
// still in flight.
func (m *FollowUp) ClonePayload() any {
	c := *m
	return &c
}

// CloneForSnapshot implements sim.Cloner for a FollowUp queued as a
// scheduler arg (a master's pending FollowUp); see ClonePayload.
func (m *FollowUp) CloneForSnapshot() any { return m.ClonePayload() }

// PdelayReq initiates a peer-delay measurement on a link.
type PdelayReq struct {
	Seq       uint16
	Requester string
}

// PdelayResp answers a PdelayReq with the request receipt timestamp (t2).
type PdelayResp struct {
	Seq       uint16
	Requester string
	T2        float64
}

// PdelayRespFollowUp completes the two-step response with the response
// origin timestamp (t3).
type PdelayRespFollowUp struct {
	Seq       uint16
	Requester string
	T3        float64
}

// ClonePayload implements netsim.PayloadCloner (pdelay messages are
// recycled once received).
func (m *PdelayReq) ClonePayload() any { c := *m; return &c }

// ClonePayload implements netsim.PayloadCloner.
func (m *PdelayResp) ClonePayload() any { c := *m; return &c }

// ClonePayload implements netsim.PayloadCloner.
func (m *PdelayRespFollowUp) ClonePayload() any { c := *m; return &c }

// payloads holds one scheduler's free lists of the gPTP messages recycled
// once received: FollowUps (one per domain, master port and Sync interval)
// and the pdelay messages. gPTP frames are link-local, so each has exactly
// one receiver: the next relay, which copies a FollowUp (Relay.Handle), a
// slave, which reads it (HandleFollowUp), or a LinkDelay (HandleFrame).
// The receiver puts the message on its scheduler's list. A message whose
// frame is
// lost is left to the garbage collector. A Sync is shared by a relay's
// egress copies and is never recycled.
type payloads struct {
	followUps sim.FreeList[FollowUp]
	reqs      sim.FreeList[PdelayReq]
	resps     sim.FreeList[PdelayResp]
	respFUs   sim.FreeList[PdelayRespFollowUp]
}

func payloadsOf(sched *sim.Scheduler) *payloads { return sim.Local[payloads](sched) }

// newFrame wraps a gPTP payload in a frame from p at PTP priority. gPTP
// frames die inside netsim (endpoint delivery, relay claim, drop), so they
// are safe to recycle.
func newFrame(p *netsim.FramePool, src netsim.Address, payload any) *netsim.Frame {
	f := p.Get()
	f.Src = src
	f.Dst = MulticastAddr
	f.Priority = netsim.PriorityPTP
	f.Payload = payload
	return f
}

// IsGPTP reports whether a frame carries a gPTP payload.
func IsGPTP(f *netsim.Frame) bool {
	switch f.Payload.(type) {
	case *Sync, *FollowUp, *PdelayReq, *PdelayResp, *PdelayRespFollowUp, *Announce:
		return true
	default:
		return false
	}
}
