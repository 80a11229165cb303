package gptp

import (
	"fmt"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// DomainPorts is the static per-domain port-role configuration of one
// time-aware bridge (IEEE 802.1AS external port configuration — the paper
// disables the BMCA entirely).
type DomainPorts struct {
	// SlavePort faces the domain's grandmaster.
	SlavePort int
	// MasterPorts are the downstream ports Sync is relayed to.
	MasterPorts []int
}

// RelayConfig configures the per-domain spanning tree on a bridge.
type RelayConfig struct {
	Domains map[int]DomainPorts
	// DefaultLinkDelayNS is used for correction-field accumulation before
	// the first pdelay measurement completes on the slave port.
	DefaultLinkDelayNS float64
}

// Relay implements IEEE 802.1AS time-aware bridge behaviour as a
// netsim.RelayHook: peer delay on every port, Sync relaying along the
// static per-domain trees, and residence-time + link-delay accumulation in
// the FollowUp correction field, measured with the bridge's own
// free-running clock.
type Relay struct {
	bridge *netsim.Bridge
	frames *netsim.FramePool
	msgs   *payloads
	cfg    RelayConfig
	addr   netsim.Address // source address of relayed FollowUps

	linkDelays []*LinkDelay
	// domains is indexed by domain number; nil entries are not relayed.
	domains []*relayDomain
	// onAnnounce receives Announce messages per ingress port (the BMCA
	// engine in dynamic operation); Announce is link-local and always
	// consumed.
	onAnnounce func(ingress int, a *Announce)
}

// maxDomain is the largest gPTP domain number (domainNumber is one octet).
const maxDomain = 255

type relayDomain struct {
	cfg     DomainPorts
	pending seqRing[relaySync]
	// onTx is the prebound egress-timestamp callback of relayed Syncs, so
	// relaying a Sync allocates no closure. It captures only the relay and
	// this record, both restored in place, which keeps it snapshot-safe.
	onTx func(egress int, payload any, txTS float64)
}

// newRelayDomain returns the relaying state of one domain.
func (r *Relay) newRelayDomain(ports DomainPorts) *relayDomain {
	d := &relayDomain{cfg: ports}
	d.onTx = func(egress int, payload any, txTS float64) { r.syncSent(d, egress, payload.(*Sync).Seq, txTS) }
	return d
}

// relaySync is the relaying state of one two-step Sync.
type relaySync struct {
	rxTS float64
	// egress holds the per-bridge-port progress.
	egress []egressState
	// fu holds a copy of the upstream FollowUp (valid when haveFU) until
	// all egress timestamps exist.
	fu        FollowUp
	haveFU    bool
	doneCount int
}

type egressState struct {
	txTS   float64 // measured egress timestamp, valid when haveTx
	haveTx bool
	done   bool // the FollowUp has been forwarded on this port
}

// reset starts the record over for a Sync received at rxTS, reusing its
// per-port slice.
func (st *relaySync) reset(rxTS float64, nports int) {
	egress := st.egress
	if cap(egress) < nports {
		egress = make([]egressState, nports)
	}
	egress = egress[:nports]
	clear(egress)
	*st = relaySync{rxTS: rxTS, egress: egress}
}

// NewRelay installs 802.1AS relaying on a bridge and returns the relay. rng
// seeds the per-port pdelay phase.
func NewRelay(bridge *netsim.Bridge, sched *sim.Scheduler, rng *sim.Stream, cfg RelayConfig) (*Relay, error) {
	r := &Relay{
		bridge: bridge,
		frames: netsim.PoolOf(sched),
		msgs:   payloadsOf(sched),
		cfg:    cfg,
		addr:   netsim.Address("nic/" + bridge.DeviceName()),
	}
	for d, ports := range cfg.Domains {
		if ports.SlavePort < 0 || ports.SlavePort >= bridge.NumPorts() {
			return nil, fmt.Errorf("gptp: relay %s domain %d: bad slave port %d", bridge.DeviceName(), d, ports.SlavePort)
		}
		if err := r.setDomain(d, r.newRelayDomain(ports)); err != nil {
			return nil, err
		}
	}
	r.linkDelays = make([]*LinkDelay, bridge.NumPorts())
	for i := range r.linkDelays {
		port := i
		name := fmt.Sprintf("%s/p%d", bridge.DeviceName(), i)
		r.linkDelays[i] = NewLinkDelay(name, sched, rng, func(f *netsim.Frame) (float64, bool) {
			return bridge.Transmit(port, f), true
		}, LinkDelayConfig{})
	}
	bridge.SetHook(r)
	return r, nil
}

// domain returns the relaying state of domain n, or nil.
func (r *Relay) domain(n int) *relayDomain {
	if n >= 0 && n < len(r.domains) {
		return r.domains[n]
	}
	return nil
}

// setDomain installs the relaying state of domain n.
func (r *Relay) setDomain(n int, d *relayDomain) error {
	if n < 0 || n > maxDomain {
		return fmt.Errorf("gptp: relay %s: bad domain %d", r.bridge.DeviceName(), n)
	}
	for len(r.domains) <= n {
		r.domains = append(r.domains, nil)
	}
	r.domains[n] = d
	return nil
}

// Start begins pdelay measurement on all connected ports.
func (r *Relay) Start() error {
	for i, ld := range r.linkDelays {
		if !r.bridge.Port(i).Connected() {
			continue
		}
		if err := ld.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop halts pdelay measurement.
func (r *Relay) Stop() {
	for _, ld := range r.linkDelays {
		ld.Stop()
	}
}

// LinkDelay exposes the pdelay endpoint of a port (tests, diagnostics).
func (r *Relay) LinkDelay(port int) *LinkDelay { return r.linkDelays[port] }

// SetDomainPorts installs or replaces a domain's port-role configuration at
// runtime — how a BMCA engine's role decisions are applied to the relay
// when dynamic operation is wanted instead of the paper's static external
// port configuration. In-flight Sync state for the domain is dropped.
func (r *Relay) SetDomainPorts(domain int, ports DomainPorts) error {
	if ports.SlavePort < 0 || ports.SlavePort >= r.bridge.NumPorts() {
		return fmt.Errorf("gptp: relay %s domain %d: bad slave port %d",
			r.bridge.DeviceName(), domain, ports.SlavePort)
	}
	for _, m := range ports.MasterPorts {
		if m < 0 || m >= r.bridge.NumPorts() {
			return fmt.Errorf("gptp: relay %s domain %d: bad master port %d",
				r.bridge.DeviceName(), domain, m)
		}
	}
	return r.setDomain(domain, r.newRelayDomain(ports))
}

// RemoveDomain stops relaying a domain (its grandmaster disappeared and no
// successor exists on this side of the network).
func (r *Relay) RemoveDomain(domain int) {
	if r.domain(domain) != nil {
		r.domains[domain] = nil
	}
}

// DomainPortsFor reports a domain's current configuration.
func (r *Relay) DomainPortsFor(domain int) (DomainPorts, bool) {
	d := r.domain(domain)
	if d == nil {
		return DomainPorts{}, false
	}
	return DomainPorts{
		SlavePort:   d.cfg.SlavePort,
		MasterPorts: append([]int(nil), d.cfg.MasterPorts...),
	}, true
}

// Handle implements netsim.RelayHook. All gPTP frames are consumed (they
// are link-local); everything else falls through to generic forwarding.
func (r *Relay) Handle(_ *netsim.Bridge, ingress int, f *netsim.Frame, rxTS float64) bool {
	switch m := f.Payload.(type) {
	case *PdelayReq, *PdelayResp, *PdelayRespFollowUp:
		r.linkDelays[ingress].HandleFrame(f.Payload, rxTS)
		return true
	case *Sync:
		r.handleSync(ingress, f, m, rxTS)
		return true
	case *FollowUp:
		r.handleFollowUp(ingress, m)
		r.msgs.followUps.Put(m)
		return true
	case *Announce:
		if r.onAnnounce != nil {
			r.onAnnounce(ingress, m)
		}
		return true
	default:
		return false
	}
}

// SetAnnounceHandler routes received Announce messages to a BMCA engine.
func (r *Relay) SetAnnounceHandler(h func(ingress int, a *Announce)) {
	r.onAnnounce = h
}

func (r *Relay) handleSync(ingress int, f *netsim.Frame, m *Sync, rxTS float64) {
	d := r.domain(m.Domain)
	if d == nil || ingress != d.cfg.SlavePort {
		return // not part of this domain's tree here: drop
	}
	if m.OneStep {
		r.relayOneStep(d, f, m, rxTS)
		return
	}
	d.pending.add(m.Seq).reset(rxTS, r.bridge.NumPorts())
	for _, egress := range d.cfg.MasterPorts {
		out := r.frames.Clone(f)
		residence := r.bridge.ResidenceFor(f)
		r.bridge.TransmitAt(egress, residence, out, d.onTx)
	}
}

// syncSent records the egress timestamp of a relayed two-step Sync. It
// looks the record up by sequence number (carried by the Sync payload)
// instead of holding *relaySync: ring slots are reused. Residence times
// are microseconds while ageing takes seqDelta > 4 intervals, so a pending
// egress callback never misses its record.
func (r *Relay) syncSent(d *relayDomain, egress int, seq uint16, txTS float64) {
	st := d.pending.get(seq)
	if st == nil {
		return
	}
	st.egress[egress].txTS = txTS
	st.egress[egress].haveTx = true
	if st.haveFU {
		r.forwardFollowUp(d, seq, st, egress)
	}
}

// relayOneStep forwards a one-step Sync: each egress copy gets its own
// payload whose correction field is updated at the moment of transmission
// (residence + upstream link delay, in the grandmaster timebase) — the
// on-the-fly field rewrite a one-step transparent clock performs in
// hardware.
func (r *Relay) relayOneStep(d *relayDomain, f *netsim.Frame, m *Sync, rxTS float64) {
	slaveLD := r.linkDelays[d.cfg.SlavePort]
	nrr := slaveLD.NeighborRateRatio()
	cumRatio := m.RateRatio * nrr
	linkDelay := slaveLD.DelayOrDefault(r.cfg.DefaultLinkDelayNS)
	for _, egress := range d.cfg.MasterPorts {
		out := r.frames.Clone(f)
		copySync := *m
		copySync.RateRatio = cumRatio
		out.Payload = &copySync
		residence := r.bridge.ResidenceFor(f)
		corr := m.Correction
		// The callback writes into the payload the scheduler hands it (a
		// fork receives its own deep copy) and captures only scalars, which
		// keeps the one-step rewrite snapshot-safe.
		r.bridge.TransmitAt(egress, residence, out, func(_ int, payload any, txTS float64) {
			payload.(*Sync).Correction = corr + (txTS-rxTS+linkDelay)*cumRatio
		})
	}
}

func (r *Relay) handleFollowUp(ingress int, m *FollowUp) {
	d := r.domain(m.Domain)
	if d == nil || ingress != d.cfg.SlavePort {
		return
	}
	st := d.pending.get(m.Seq)
	if st == nil {
		return // Sync was lost or aged out
	}
	st.fu = *m
	st.haveFU = true
	for _, egress := range d.cfg.MasterPorts {
		if st.egress[egress].haveTx {
			r.forwardFollowUp(d, m.Seq, st, egress)
		}
	}
}

// forwardFollowUp emits the FollowUp on one master port with the correction
// field increased by this bridge's residence time and the upstream link
// delay, both expressed in the grandmaster timebase via the cumulative rate
// ratio (802.1AS clause 11.1.3).
func (r *Relay) forwardFollowUp(d *relayDomain, seq uint16, st *relaySync, egress int) {
	if st.egress[egress].done {
		return
	}
	st.egress[egress].done = true
	st.doneCount++

	slaveLD := r.linkDelays[d.cfg.SlavePort]
	nrr := slaveLD.NeighborRateRatio()
	cumRatio := st.fu.RateRatio * nrr
	residence := st.egress[egress].txTS - st.rxTS
	linkDelay := slaveLD.DelayOrDefault(r.cfg.DefaultLinkDelayNS)

	out := r.msgs.followUps.Get()
	out.Domain = st.fu.Domain
	out.Seq = seq
	out.PreciseOrigin = st.fu.PreciseOrigin
	out.Correction = st.fu.Correction + (residence+linkDelay)*cumRatio
	out.RateRatio = cumRatio
	out.GMIdentity = st.fu.GMIdentity
	r.bridge.TransmitAfterResidence(egress, newFrame(r.frames, r.addr, out))

	if st.doneCount == len(d.cfg.MasterPorts) {
		d.pending.remove(seq)
	}
}
