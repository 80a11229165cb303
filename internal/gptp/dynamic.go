package gptp

import (
	"fmt"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// Dynamic 802.1AS operation: instead of the paper's static external port
// configuration, every time-aware system runs the BMCA and the relay's
// per-domain spanning tree follows the elected roles. The paper
// deliberately avoids this mode (re-election gaps, single elected
// grandmaster); the library ships it so the trade-off can be measured —
// see experiments.DynamicMeshStudy.

// DynamicBridge couples a time-aware bridge's relay with a BMCA engine:
// Announce messages feed the engine, and every role change rewrites the
// relay's port configuration for the domain.
type DynamicBridge struct {
	relay  *Relay
	engine *BMCA
	domain int
}

// NewDynamicBridge wires BMCA-managed relaying for one domain on a bridge
// that already has a Relay installed.
func NewDynamicBridge(bridge *netsim.Bridge, relay *Relay, sched *sim.Scheduler,
	self SystemIdentity, domain int, announceInterval time.Duration) (*DynamicBridge, error) {
	tx := make([]TxFunc, bridge.NumPorts())
	for p := 0; p < bridge.NumPorts(); p++ {
		p := p
		tx[p] = func(f *netsim.Frame) (float64, bool) {
			return bridge.Transmit(p, f), true
		}
	}
	db := &DynamicBridge{relay: relay, domain: domain}
	engine, err := NewBMCA(sched, tx, BMCAConfig{
		Domain:           domain,
		Self:             self,
		AnnounceInterval: announceInterval,
	}, db.applyRoles)
	if err != nil {
		return nil, err
	}
	db.engine = engine
	relay.SetAnnounceHandler(engine.HandleAnnounce)
	// Until the first election completes, do not relay the domain at all.
	relay.RemoveDomain(domain)
	return db, nil
}

// Engine exposes the BMCA engine.
func (db *DynamicBridge) Engine() *BMCA { return db.engine }

// Start begins BMCA participation.
func (db *DynamicBridge) Start() error { return db.engine.Start() }

// Stop halts BMCA participation (fail-silent bridge).
func (db *DynamicBridge) Stop() { db.engine.Stop() }

// applyRoles maps the engine's port roles onto the relay's spanning tree.
func (db *DynamicBridge) applyRoles(c RoleChange) {
	if c.SlavePort < 0 {
		// This bridge believes it is grandmaster — with bridges that are
		// pure relays (no local clock source advertised better than the
		// stations) this only happens transiently before the first
		// Announce arrives.
		db.relay.RemoveDomain(db.domain)
		return
	}
	masters := make([]int, 0, len(c.Roles))
	for p, role := range c.Roles {
		if role == RoleMaster {
			masters = append(masters, p)
		}
	}
	_ = db.relay.SetDomainPorts(db.domain, DomainPorts{SlavePort: c.SlavePort, MasterPorts: masters})
}

// DynamicStation is an end station under BMCA control: it announces its
// own clock quality, slaves to the elected grandmaster, and activates its
// Master role exactly while it is the elected grandmaster itself.
type DynamicStation struct {
	name   string
	nic    *netsim.NIC
	engine *BMCA
	master *Master
	slave  *Slave
	ld     *LinkDelay
}

// NewDynamicStation builds a station on nic. onOffset receives grandmaster
// offsets while the station is a slave.
func NewDynamicStation(name string, nic *netsim.NIC, sched *sim.Scheduler, rng *sim.Stream,
	self SystemIdentity, domain int, announceInterval time.Duration,
	onOffset func(OffsetSample)) (*DynamicStation, error) {
	st := &DynamicStation{name: name, nic: nic}
	st.ld = NewLinkDelay(name, sched, rng, func(f *netsim.Frame) (float64, bool) {
		ts, err := nic.Send(f)
		return ts, err == nil
	}, LinkDelayConfig{})
	st.slave = NewSlave(domain, st.ld, onOffset)
	st.master = NewMaster(nic, sched, rng, MasterConfig{
		Domain:     domain,
		GMIdentity: name,
	}, nil)

	tx := []TxFunc{func(f *netsim.Frame) (float64, bool) {
		ts, err := nic.Send(f)
		return ts, err == nil
	}}
	engine, err := NewBMCA(sched, tx, BMCAConfig{
		Domain:           domain,
		Self:             self,
		AnnounceInterval: announceInterval,
	}, func(c RoleChange) {
		if c.IsGM && !st.master.Running() {
			_ = st.master.Start()
		}
		if !c.IsGM && st.master.Running() {
			st.master.Stop()
		}
	})
	if err != nil {
		return nil, err
	}
	st.engine = engine

	nic.SetHandler(func(f *netsim.Frame, rxTS float64) {
		switch m := f.Payload.(type) {
		case *PdelayReq, *PdelayResp, *PdelayRespFollowUp:
			st.ld.HandleFrame(f.Payload, rxTS)
		case *Sync:
			if !engine.IsGM() {
				st.slave.HandleSync(m, rxTS)
			}
		case *FollowUp:
			if !engine.IsGM() {
				st.slave.HandleFollowUp(m)
			}
		case *Announce:
			engine.HandleAnnounce(0, m)
		}
	})
	return st, nil
}

// Engine exposes the BMCA engine.
func (st *DynamicStation) Engine() *BMCA { return st.engine }

// Master exposes the station's (BMCA-gated) grandmaster role.
func (st *DynamicStation) Master() *Master { return st.master }

// Slave exposes the station's slave role.
func (st *DynamicStation) Slave() *Slave { return st.slave }

// Start boots pdelay and BMCA participation.
func (st *DynamicStation) Start() error {
	if err := st.ld.Start(); err != nil {
		return err
	}
	return st.engine.Start()
}

// Fail makes the station fail-silent.
func (st *DynamicStation) Fail() {
	st.nic.SetDown(true)
	st.engine.Stop()
	st.master.Stop()
	st.ld.Stop()
}

// String describes the station.
func (st *DynamicStation) String() string {
	return fmt.Sprintf("station(%s gm=%v follows=%s)", st.name, st.engine.IsGM(), st.engine.GM().ClockID)
}
