package gptp

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

// Snapshot implements sim.Snapshotter.
func (s *Slave) Snapshot() any {
	st := s.slaveState
	return &st
}

// Restore implements sim.Snapshotter.
func (s *Slave) Restore(snap any) { s.slaveState = *snap.(*slaveState) }

// clonePending deep-copies a domain's pending ring: each slot's per-port
// slice, which a reused slot writes in place.
func clonePending(src *seqRing[relaySync]) seqRing[relaySync] {
	out := *src
	for i := range out {
		out[i].v.egress = append([]egressState(nil), out[i].v.egress...)
	}
	return out
}

// relayDomainSnapshot is one domain's captured state. The *relayDomain
// instance itself is captured by pointer — queued egress callbacks hold it —
// and its pending ring as a pristine deep copy, re-cloned on every restore
// so each fork consumes private copies.
type relayDomainSnapshot struct {
	d       *relayDomain
	pending seqRing[relaySync]
}

// relaySnapshot captures a relay: the domain set (SetDomainPorts and
// RemoveDomain mutate it at runtime) and every per-port pdelay endpoint.
type relaySnapshot struct {
	domains    []*relayDomainSnapshot // indexed by domain number
	linkDelays []any
}

// Snapshot implements sim.Snapshotter.
func (r *Relay) Snapshot() any {
	sn := &relaySnapshot{
		domains:    make([]*relayDomainSnapshot, len(r.domains)),
		linkDelays: make([]any, len(r.linkDelays)),
	}
	for n, d := range r.domains {
		if d != nil {
			sn.domains[n] = &relayDomainSnapshot{d: d, pending: clonePending(&d.pending)}
		}
	}
	for i, ld := range r.linkDelays {
		sn.linkDelays[i] = ld.Snapshot()
	}
	return sn
}

// Restore implements sim.Snapshotter. Domains added after the snapshot are
// dropped; replaced ones revert to their snapshot-time instances, which is
// what queued callbacks captured.
func (r *Relay) Restore(snap any) {
	sn := snap.(*relaySnapshot)
	r.domains = make([]*relayDomain, len(sn.domains))
	for n, ds := range sn.domains {
		if ds != nil {
			ds.d.pending = clonePending(&ds.pending)
			r.domains[n] = ds.d
		}
	}
	for i, ld := range r.linkDelays {
		ld.Restore(sn.linkDelays[i])
	}
}
