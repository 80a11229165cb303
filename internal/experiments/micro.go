package experiments

import (
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

var (
	// microLink is the link of every micro-topology.
	microLink = netsim.LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 20}
	// beptpResidence is the residence of a bridge that separates PTP from
	// best-effort traffic. Bridges only read it.
	beptpResidence = map[int]netsim.ResidenceModel{
		netsim.PriorityBestEffort: {Base: 1500 * time.Nanosecond, JitterNS: 150},
		netsim.PriorityPTP:        {Base: 1200 * time.Nanosecond, JitterNS: 100},
	}
)

// micro builds the hand-wired networks of the studies that do not run the
// paper's system (bmca, dynamic, onestep, tas) on one scheduler and one
// seed's streams. Constructors schedule nothing and draw from streams named
// after their component, so only the caller's start order sets event order.
type micro struct {
	sched   *sim.Scheduler
	streams *sim.Streams
}

func newMicro(seed int64) *micro {
	return &micro{sched: sim.NewScheduler(), streams: sim.NewStreams(seed)}
}

// phc builds name's PHC over its own oscillator (streams "osc/"+name and
// "ts/"+name).
func (m *micro) phc(name string, osc clock.OscillatorConfig, cfg clock.PHCConfig) *clock.PHC {
	return clock.NewPHC(m.sched, clock.NewOscillator(osc, m.streams.Stream("osc/"+name), 0),
		m.streams.Stream("ts/"+name), cfg)
}

// drifting builds name's PHC with a static rate error of ppb, 1 ppb/√s
// of wander, 8 ns of timestamp jitter and an initial offset of offNS.
func (m *micro) drifting(name string, ppb, offNS float64) *clock.PHC {
	return m.phc(name, clock.OscillatorConfig{StaticPPB: ppb, WanderPPBPerSqrtSec: 1},
		clock.PHCConfig{TimestampJitterNS: 8, InitialOffsetNS: offNS})
}

// nic builds NIC name on a drifting PHC of the same name.
func (m *micro) nic(name string, ppb, offNS float64) *netsim.NIC {
	return netsim.NewNIC(name, m.sched, m.drifting(name, ppb, offNS))
}

// bridge builds bridge name with the given ports and residence model,
// timestamping on clk and drawing from stream.
func (m *micro) bridge(name, stream string, clk *clock.PHC, ports int,
	residence map[int]netsim.ResidenceModel) *netsim.Bridge {
	return netsim.NewBridge(name, m.sched, m.streams.Stream(stream), clk,
		netsim.BridgeConfig{Ports: ports, Residence: residence})
}

// link connects a and b with a microLink drawing from stream.
func (m *micro) link(stream string, a, b *netsim.Port) error {
	_, err := netsim.Connect(m.sched, m.streams.Stream(stream), microLink, a, b)
	return err
}

// relayPath wires the GM → bridge → client path of the onestep and tas
// studies: nics[i] on port i of br (link "l<i>"; the grandmaster first, the
// client second), and a started domain-0 relay on br from slave port 0 to
// master port 1. It returns the grandmaster's Master, which the caller
// starts.
func (m *micro) relayPath(br *netsim.Bridge, cfg gptp.MasterConfig, nics ...*netsim.NIC) (*gptp.Master, error) {
	for i, nic := range nics {
		if err := m.link(fmt.Sprintf("l%d", i), nic.Port(), br.Port(i)); err != nil {
			return nil, err
		}
	}
	relay, err := gptp.NewRelay(br, m.sched, m.streams.Stream("relay"), gptp.RelayConfig{
		Domains: map[int]gptp.DomainPorts{0: {SlavePort: 0, MasterPorts: []int{1}}},
	})
	if err != nil {
		return nil, err
	}
	if err := relay.Start(); err != nil {
		return nil, err
	}
	return gptp.NewMaster(nics[0], m.sched, m.streams.Stream("gm"), cfg, nil), nil
}

// priority1 ranks station gm first and station successor second of an
// election's candidates, and every other station last.
func priority1(i, gm, successor int) uint8 {
	switch i {
	case gm:
		return 50
	case successor:
		return 60
	}
	return 128
}

type starter interface{ Start() error }

// startAll starts cs in order, stopping at the first error.
func startAll[S starter](cs ...S) error {
	for _, c := range cs {
		if err := c.Start(); err != nil {
			return err
		}
	}
	return nil
}
