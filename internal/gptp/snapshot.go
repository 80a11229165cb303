package gptp

import "gptpfta/internal/sim"

// Warm-start snapshot support (sim.Snapshotter) for the gPTP layer. All
// components are rewound in place, which keeps the egress-timestamp and
// FollowUp callbacks already queued in the scheduler valid across a fork:
// they capture the relay and its *relayDomain records, never the mutable
// per-Sync state (that is looked up by sequence number at fire time).

// linkDelaySnapshot captures one peer-delay endpoint.
type linkDelaySnapshot struct {
	ticker         *sim.Ticker // revalidated by the scheduler's restore
	seq            uint16
	reqT1          float64
	respT2, respT4 float64
	havePair       bool
	meanDelayNS    float64
	haveDelay      bool
	samples        uint64
	prevT3, prevT4 float64
	havePrev       bool
	rateRatio      float64
}

// Snapshot implements sim.Snapshotter.
func (ld *LinkDelay) Snapshot() any {
	return &linkDelaySnapshot{
		ticker:      ld.ticker,
		seq:         ld.seq,
		reqT1:       ld.reqT1,
		respT2:      ld.respT2,
		respT4:      ld.respT4,
		havePair:    ld.havePair,
		meanDelayNS: ld.meanDelayNS,
		haveDelay:   ld.haveDelay,
		samples:     ld.samples,
		prevT3:      ld.prevT3,
		prevT4:      ld.prevT4,
		havePrev:    ld.havePrev,
		rateRatio:   ld.rateRatio,
	}
}

// Restore implements sim.Snapshotter.
func (ld *LinkDelay) Restore(snap any) {
	sn := snap.(*linkDelaySnapshot)
	ld.ticker = sn.ticker
	ld.seq = sn.seq
	ld.reqT1 = sn.reqT1
	ld.respT2 = sn.respT2
	ld.respT4 = sn.respT4
	ld.havePair = sn.havePair
	ld.meanDelayNS = sn.meanDelayNS
	ld.haveDelay = sn.haveDelay
	ld.samples = sn.samples
	ld.prevT3 = sn.prevT3
	ld.prevT4 = sn.prevT4
	ld.havePrev = sn.havePrev
	ld.rateRatio = sn.rateRatio
}

// slaveSnapshot captures one end-station slave.
type slaveSnapshot struct {
	pending map[uint16]float64
	lastSeq uint16
	matched uint64
}

// Snapshot implements sim.Snapshotter.
func (s *Slave) Snapshot() any {
	sn := &slaveSnapshot{
		pending: make(map[uint16]float64, len(s.pending)),
		lastSeq: s.lastSeq,
		matched: s.matched,
	}
	for k, v := range s.pending {
		sn.pending[k] = v
	}
	return sn
}

// Restore implements sim.Snapshotter.
func (s *Slave) Restore(snap any) {
	sn := snap.(*slaveSnapshot)
	s.pending = make(map[uint16]float64, len(sn.pending))
	for k, v := range sn.pending {
		s.pending[k] = v
	}
	s.lastSeq = sn.lastSeq
	s.matched = sn.matched
}

// clone deep-copies a relaySync for the snapshot engine.
func (st *relaySync) clone() *relaySync {
	return &relaySync{
		rxTS:      st.rxTS,
		txTS:      append([]float64(nil), st.txTS...),
		haveTx:    append([]bool(nil), st.haveTx...),
		fu:        st.fu,
		haveFU:    st.haveFU,
		done:      append([]bool(nil), st.done...),
		doneCount: st.doneCount,
	}
}

// relayDomainState is one domain's captured state. The *relayDomain
// instance itself is captured by pointer — queued egress callbacks hold it —
// and its pending records as pristine deep copies, re-cloned on every
// restore so each fork consumes private copies.
type relayDomainState struct {
	d       *relayDomain
	pending map[uint16]*relaySync
	lastSeq uint16
}

// relaySnapshot captures a relay: the domain set (SetDomainPorts and
// RemoveDomain mutate it at runtime) and every per-port pdelay endpoint.
type relaySnapshot struct {
	domains    map[int]*relayDomainState
	linkDelays []any
}

// Snapshot implements sim.Snapshotter.
func (r *Relay) Snapshot() any {
	sn := &relaySnapshot{
		domains:    make(map[int]*relayDomainState, len(r.domains)),
		linkDelays: make([]any, len(r.linkDelays)),
	}
	for k, d := range r.domains {
		ds := &relayDomainState{
			d:       d,
			pending: make(map[uint16]*relaySync, len(d.pending)),
			lastSeq: d.lastSeq,
		}
		for seq, st := range d.pending {
			ds.pending[seq] = st.clone()
		}
		sn.domains[k] = ds
	}
	for i, ld := range r.linkDelays {
		sn.linkDelays[i] = ld.Snapshot()
	}
	return sn
}

// Restore implements sim.Snapshotter. Domains added after the snapshot are
// dropped; replaced ones revert to their snapshot-time instances, which is
// what queued callbacks captured. Free lists start empty — record identity
// is not observable to the simulation.
func (r *Relay) Restore(snap any) {
	sn := snap.(*relaySnapshot)
	r.domains = make(map[int]*relayDomain, len(sn.domains))
	for k, ds := range sn.domains {
		d := ds.d
		d.pending = make(map[uint16]*relaySync, len(ds.pending))
		for seq, st := range ds.pending {
			d.pending[seq] = st.clone()
		}
		d.lastSeq = ds.lastSeq
		d.free = nil
		r.domains[k] = d
	}
	for i, ld := range r.linkDelays {
		ld.Restore(sn.linkDelays[i])
	}
}
