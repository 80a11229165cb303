package experiments

import (
	"context"
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/core"
	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// DynamicMeshConfig parameterises the fully dynamic 802.1AS study: the
// paper's four-switch redundant mesh, but with the BMCA electing the
// grandmaster and building the spanning tree instead of the static
// external port configuration. The redundant mesh paths are broken by
// passive ports; a grandmaster failure triggers re-election and the
// measured synchronization outage is the cost the paper's static + FTA
// design avoids.
type DynamicMeshConfig struct {
	Seed             int64         `json:"seed"`
	AnnounceInterval time.Duration `json:"announce_interval,omitempty"`
	Settle           time.Duration `json:"settle,omitempty"`  // before the GM failure
	Observe          time.Duration `json:"observe,omitempty"` // after the GM failure
}

// Validate implements Validator.
func (c DynamicMeshConfig) Validate() error {
	return checkDurations(
		field{"announce_interval", c.AnnounceInterval},
		field{"settle", c.Settle},
		field{"observe", c.Observe})
}

func (c DynamicMeshConfig) withDefaults() DynamicMeshConfig {
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 30 * time.Second
	}
	if c.Observe <= 0 {
		c.Observe = 30 * time.Second
	}
	return c
}

// DynamicMeshResult reports the dynamic mode's behaviour.
type DynamicMeshResult struct {
	Config DynamicMeshConfig
	// ElectedGM / SuccessorGM are the grandmasters before/after failure.
	ElectedGM, SuccessorGM string
	// OffsetsBeforeFailure counts grandmaster offsets the slaves computed
	// while the first grandmaster served.
	OffsetsBeforeFailure int
	// SyncOutage is the longest interval without any slave receiving time
	// after the grandmaster failed (re-election + tree rebuild).
	SyncOutage time.Duration
	// OffsetsAfterRecovery counts offsets from the successor.
	OffsetsAfterRecovery int
	// PassivePorts counts loop-breaking passive ports across bridges.
	PassivePorts int
}

// Summary renders the verdict.
func (r DynamicMeshResult) Summary() string {
	return fmt.Sprintf(
		"dynamic 802.1AS mesh: %s elected (%d offsets); failure → %v outage → %s serves (%d offsets); %d passive ports broke the mesh loops — the static-configuration + FTA architecture masks the same failure continuously",
		r.ElectedGM, r.OffsetsBeforeFailure, r.SyncOutage, r.SuccessorGM, r.OffsetsAfterRecovery, r.PassivePorts)
}

// Rows renders the election-and-outage table.
func (r DynamicMeshResult) Rows() [][]string {
	return [][]string{
		{"elected_gm", "successor_gm", "offsets_before", "outage_ms", "offsets_after", "passive_ports"},
		{r.ElectedGM, r.SuccessorGM, fmt.Sprintf("%d", r.OffsetsBeforeFailure),
			fmt.Sprintf("%d", r.SyncOutage.Milliseconds()),
			fmt.Sprintf("%d", r.OffsetsAfterRecovery), fmt.Sprintf("%d", r.PassivePorts)},
	}
}

// DynamicMeshStudy wires the Fig. 2 switch mesh in fully dynamic 802.1AS
// operation and measures grandmaster re-election end to end (Announce,
// tree rebuild, Sync flow). ctx is checked between the settle and observe
// phases.
func DynamicMeshStudy(ctx context.Context, cfg DynamicMeshConfig) (*DynamicMeshResult, error) {
	cfg = cfg.withDefaults()
	m := newMicro(cfg.Seed)
	sched, streams := m.sched, m.streams
	res := &DynamicMeshResult{Config: cfg}

	const nodes = 4
	// Bridges: full mesh on ports 0..2, station on port 3.
	bridges := make([]*netsim.Bridge, nodes)
	relays := make([]*gptp.Relay, nodes)
	dynBridges := make([]*gptp.DynamicBridge, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("sw%d", i+1)
		bridges[i] = m.bridge(name, "br/"+name,
			m.drifting(name, clock.UniformPPB(streams.Stream("sppb/"+name), 5000), 0), nodes, beptpResidence)
		relay, err := gptp.NewRelay(bridges[i], sched, streams.Stream("relay/"+name),
			gptp.RelayConfig{Domains: map[int]gptp.DomainPorts{}, DefaultLinkDelayNS: 500})
		if err != nil {
			return nil, err
		}
		relays[i] = relay
		// Bridges advertise the worst clock quality: they relay, they do
		// not source time.
		db, err := gptp.NewDynamicBridge(bridges[i], relay, sched,
			gptp.SystemIdentity{Priority1: 255, ClockClass: 255, ClockID: name},
			0, cfg.AnnounceInterval)
		if err != nil {
			return nil, err
		}
		dynBridges[i] = db
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if err := m.link(fmt.Sprintf("l/%d-%d", i, j),
				bridges[i].Port(core.MeshPort(nodes, i, j)), bridges[j].Port(core.MeshPort(nodes, j, i))); err != nil {
				return nil, err
			}
		}
	}

	// Stations: s1 is the best clock, s2 the successor.
	stations := make([]*gptp.DynamicStation, nodes)
	offsets := make([]int, nodes)
	var lastOffsetAt, failedAt sim.Time
	var worstGap time.Duration
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("s%d", i+1)
		nic := m.nic(name, clock.UniformPPB(streams.Stream("nppb/"+name), 5000), 0)
		if err := m.link("lnk/"+name, nic.Port(), bridges[i].Port(3)); err != nil {
			return nil, err
		}
		st, err := gptp.NewDynamicStation(name, nic, sched, streams.Stream("st/"+name),
			gptp.SystemIdentity{Priority1: priority1(i, 0, 1), ClockClass: 248, ClockID: name},
			0, cfg.AnnounceInterval,
			func(gptp.OffsetSample) {
				offsets[i]++
				if gap := sched.Now().Sub(lastOffsetAt); failedAt > 0 && gap > worstGap {
					worstGap = gap
				}
				lastOffsetAt = sched.Now()
			})
		if err != nil {
			return nil, err
		}
		stations[i] = st
	}
	if err := startAll(relays...); err != nil {
		return nil, err
	}
	if err := startAll(dynBridges...); err != nil {
		return nil, err
	}
	if err := startAll(stations...); err != nil {
		return nil, err
	}

	if err := sched.RunUntil(sim.Time(cfg.Settle)); err != nil {
		return nil, err
	}
	if !stations[0].Engine().IsGM() {
		return nil, fmt.Errorf("experiments: s1 not elected (follows %s)", stations[0].Engine().GM().ClockID)
	}
	res.ElectedGM = "s1"
	res.OffsetsBeforeFailure = offsets[1] + offsets[2] + offsets[3]
	if res.OffsetsBeforeFailure == 0 {
		return nil, fmt.Errorf("experiments: no Sync flow under the elected grandmaster")
	}
	for _, db := range dynBridges {
		for _, role := range db.Engine().Roles() {
			if role == gptp.RolePassive {
				res.PassivePorts++
			}
		}
	}
	if res.PassivePorts == 0 {
		return nil, fmt.Errorf("experiments: no passive ports in a redundant mesh")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fail the elected grandmaster.
	failedAt = sched.Now()
	lastOffsetAt = sched.Now()
	before := offsets[2] + offsets[3]
	stations[0].Fail()
	if err := sched.RunUntil(sched.Now().Add(cfg.Observe)); err != nil {
		return nil, err
	}
	if !stations[1].Engine().IsGM() {
		return nil, fmt.Errorf("experiments: s2 not re-elected (gm=%v follows %s)",
			stations[1].Engine().IsGM(), stations[1].Engine().GM().ClockID)
	}
	res.SuccessorGM = "s2"
	res.SyncOutage = worstGap
	res.OffsetsAfterRecovery = offsets[2] + offsets[3] - before
	if res.OffsetsAfterRecovery == 0 {
		return nil, fmt.Errorf("experiments: Sync flow never recovered after re-election")
	}
	return res, nil
}
