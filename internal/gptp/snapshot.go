package gptp

import "maps"

// Warm-start snapshot support (sim.Snapshotter) for the gPTP layer. All
// components are rewound in place, which keeps the egress-timestamp and
// FollowUp callbacks already queued in the scheduler valid across a fork:
// they capture the relay and its *relayDomain records, never the mutable
// per-Sync state (that is looked up by sequence number at fire time).

// Snapshot implements sim.Snapshotter.
func (ld *LinkDelay) Snapshot() any {
	st := ld.linkDelayState
	return &st
}

// Restore implements sim.Snapshotter.
func (ld *LinkDelay) Restore(snap any) { ld.linkDelayState = *snap.(*linkDelayState) }

// slaveSnapshot captures one end-station slave.
type slaveSnapshot struct {
	slaveState
	pending map[uint16]float64
}

// Snapshot implements sim.Snapshotter.
func (s *Slave) Snapshot() any {
	return &slaveSnapshot{s.slaveState, maps.Clone(s.pending)}
}

// Restore implements sim.Snapshotter.
func (s *Slave) Restore(snap any) {
	sn := snap.(*slaveSnapshot)
	s.slaveState = sn.slaveState
	s.pending = maps.Clone(sn.pending)
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

// relayDomainSnapshot is one domain's captured state. The *relayDomain
// instance itself is captured by pointer — queued egress callbacks hold it —
// and its pending records as pristine deep copies, re-cloned on every
// restore so each fork consumes private copies.
type relayDomainSnapshot struct {
	d       *relayDomain
	pending map[uint16]*relaySync
	lastSeq uint16
}

// relaySnapshot captures a relay: the domain set (SetDomainPorts and
// RemoveDomain mutate it at runtime) and every per-port pdelay endpoint.
type relaySnapshot struct {
	domains    map[int]*relayDomainSnapshot
	linkDelays []any
}

// Snapshot implements sim.Snapshotter.
func (r *Relay) Snapshot() any {
	sn := &relaySnapshot{
		domains:    make(map[int]*relayDomainSnapshot, len(r.domains)),
		linkDelays: make([]any, len(r.linkDelays)),
	}
	for k, d := range r.domains {
		ds := &relayDomainSnapshot{
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
