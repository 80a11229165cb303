package gptp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

func TestPriorityVectorCompareOrdering(t *testing.T) {
	base := PriorityVector{GM: SystemIdentity{
		Priority1: 128, ClockClass: 248, Accuracy: 0x22, Variance: 100,
		Priority2: 128, ClockID: "m",
	}, StepsRemoved: 1, SourceID: "m/p0"}

	better := func(mod func(*PriorityVector)) PriorityVector {
		v := base
		mod(&v)
		return v
	}
	tests := []struct {
		name string
		v    PriorityVector
	}{
		{"priority1", better(func(v *PriorityVector) { v.GM.Priority1 = 100 })},
		{"clockClass", better(func(v *PriorityVector) { v.GM.ClockClass = 6 })},
		{"accuracy", better(func(v *PriorityVector) { v.GM.Accuracy = 0x20 })},
		{"variance", better(func(v *PriorityVector) { v.GM.Variance = 50 })},
		{"priority2", better(func(v *PriorityVector) { v.GM.Priority2 = 1 })},
		{"clockID", better(func(v *PriorityVector) { v.GM.ClockID = "a" })},
		{"stepsRemoved", better(func(v *PriorityVector) { v.StepsRemoved = 0 })},
		{"sourceID", better(func(v *PriorityVector) { v.SourceID = "a/p0" })},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.v.Compare(base) >= 0 {
				t.Fatalf("%+v should beat %+v", tc.v, base)
			}
			if base.Compare(tc.v) <= 0 {
				t.Fatal("comparison not antisymmetric")
			}
		})
	}
	if base.Compare(base) != 0 {
		t.Fatal("self-comparison not zero")
	}
}

// TestPriorityVectorCompareTotalOrder property: antisymmetry and totality.
func TestPriorityVectorCompareTotalOrder(t *testing.T) {
	gen := func(p1, class uint8, id byte, steps uint8) PriorityVector {
		return PriorityVector{
			GM:           SystemIdentity{Priority1: p1, ClockClass: class, ClockID: string(rune('a' + id%26))},
			StepsRemoved: int(steps % 8),
			SourceID:     "s",
		}
	}
	prop := func(a1, c1, i1, s1, a2, c2, i2, s2 uint8) bool {
		v1 := gen(a1, c1, i1, s1)
		v2 := gen(a2, c2, i2, s2)
		c12, c21 := v1.Compare(v2), v2.Compare(v1)
		if c12 == 0 {
			return c21 == 0
		}
		return c12 == -c21
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bmcaNet wires N time-aware systems in a chain (sys0 - sys1 - ... - sysN)
// using bridges as multi-port systems; Announce frames travel over links
// and are consumed by the per-system engines via bridge hooks.
type bmcaNet struct {
	sched   *sim.Scheduler
	streams *sim.Streams
	engines []*BMCA
	bridges []*netsim.Bridge
	changes []RoleChange
}

type bmcaHook struct{ engine *BMCA }

func (h *bmcaHook) Handle(_ *netsim.Bridge, ingress int, f *netsim.Frame, _ float64) bool {
	if a, ok := f.Payload.(*Announce); ok {
		h.engine.HandleAnnounce(ingress, a)
		return true
	}
	return true // consume all gPTP traffic in this fixture
}

func newBMCAChain(t *testing.T, n int, priority func(i int) uint8) *bmcaNet {
	t.Helper()
	net := &bmcaNet{sched: sim.NewScheduler(), streams: sim.NewStreams(61)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sys%d", i)
		osc := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
		phc := clock.NewPHC(net.sched, osc, nil, clock.PHCConfig{})
		br := netsim.NewBridge(name, net.sched, net.streams.Stream("br/"+name), phc,
			netsim.BridgeConfig{Ports: 2, Residence: map[int]netsim.ResidenceModel{
				netsim.PriorityBestEffort: {Base: time.Microsecond},
			}})
		net.bridges = append(net.bridges, br)

		tx := make([]TxFunc, 2)
		for p := 0; p < 2; p++ {
			p := p
			brCopy := br
			tx[p] = func(f *netsim.Frame) (float64, bool) {
				return brCopy.Transmit(p, f), true
			}
		}
		engine, err := NewBMCA(net.sched, tx, BMCAConfig{
			Domain: 0,
			Self: SystemIdentity{
				Priority1:  priority(i),
				ClockClass: 248,
				Priority2:  128,
				ClockID:    name,
			},
		}, func(c RoleChange) { net.changes = append(net.changes, c) })
		if err != nil {
			t.Fatalf("bmca: %v", err)
		}
		br.SetHook(&bmcaHook{engine: engine})
		net.engines = append(net.engines, engine)
	}
	for i := 0; i+1 < n; i++ {
		if _, err := netsim.Connect(net.sched, net.streams.Stream(fmt.Sprintf("l%d", i)),
			netsim.LinkConfig{Propagation: 500 * time.Nanosecond},
			net.bridges[i].Port(1), net.bridges[i+1].Port(0)); err != nil {
			t.Fatalf("connect: %v", err)
		}
	}
	for _, e := range net.engines {
		if err := e.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
	}
	return net
}

func (net *bmcaNet) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := net.sched.RunUntil(net.sched.Now().Add(d)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestBMCAElectsBestClock(t *testing.T) {
	// sys2 has the lowest priority1 → must become grandmaster of the
	// chain sys0 - sys1 - sys2 - sys3.
	net := newBMCAChain(t, 4, func(i int) uint8 {
		if i == 2 {
			return 50
		}
		return 128
	})
	net.run(t, 10*time.Second)
	for i, e := range net.engines {
		if i == 2 {
			if !e.IsGM() {
				t.Fatalf("sys2 should be grandmaster, roles %v", e.Roles())
			}
			continue
		}
		if e.IsGM() {
			t.Fatalf("sys%d believes it is grandmaster", i)
		}
		if e.GM().ClockID != "sys2" {
			t.Fatalf("sys%d elected %s, want sys2", i, e.GM().ClockID)
		}
	}
	// Chain topology: sys0's slave port faces sys1 (port 1); sys3's faces
	// sys2 (port 0).
	if net.engines[0].SlavePort() != 1 {
		t.Fatalf("sys0 slave port = %d, want 1", net.engines[0].SlavePort())
	}
	if net.engines[3].SlavePort() != 0 {
		t.Fatalf("sys3 slave port = %d, want 0", net.engines[3].SlavePort())
	}
	// The grandmaster has no slave port.
	if net.engines[2].SlavePort() != -1 {
		t.Fatal("grandmaster has a slave port")
	}
}

func TestBMCATiebreakByClockID(t *testing.T) {
	// Equal priorities: lowest ClockID ("sys0") wins.
	net := newBMCAChain(t, 3, func(int) uint8 { return 128 })
	net.run(t, 10*time.Second)
	for i, e := range net.engines {
		want := i == 0
		if e.IsGM() != want {
			t.Fatalf("sys%d IsGM = %v", i, e.IsGM())
		}
	}
}

func TestBMCAReelectsAfterGMFailure(t *testing.T) {
	net := newBMCAChain(t, 4, func(i int) uint8 {
		switch i {
		case 3:
			return 50 // initial GM at the end of the chain
		case 1:
			return 60 // successor
		default:
			return 128
		}
	})
	net.run(t, 10*time.Second)
	if !net.engines[3].IsGM() {
		t.Fatal("sys3 not elected initially")
	}
	// Fail sys3 silently: its engine stops announcing.
	net.engines[3].Stop()
	// Re-election takes up to receiptTimeout (3 s) plus propagation of the
	// new advertisement along the chain.
	net.run(t, 10*time.Second)
	if !net.engines[1].IsGM() {
		t.Fatalf("sys1 not re-elected; its GM is %s", net.engines[1].GM().ClockID)
	}
	for _, i := range []int{0, 2} {
		if net.engines[i].GM().ClockID != "sys1" {
			t.Fatalf("sys%d follows %s after failover, want sys1", i, net.engines[i].GM().ClockID)
		}
	}
}

func TestBMCAFailedMiddleNodePartitions(t *testing.T) {
	// Killing a middle time-aware system partitions the chain: each side
	// elects its own grandmaster — exactly why the paper pairs static
	// external port configuration with redundant network paths.
	net := newBMCAChain(t, 4, func(i int) uint8 {
		if i == 2 {
			return 50
		}
		return 128
	})
	net.run(t, 10*time.Second)
	if !net.engines[2].IsGM() {
		t.Fatal("sys2 not elected initially")
	}
	net.engines[2].Stop()
	net.run(t, 10*time.Second)
	if net.engines[0].GM().ClockID != "sys0" || net.engines[1].GM().ClockID != "sys0" {
		t.Fatalf("left partition follows %s/%s, want sys0",
			net.engines[0].GM().ClockID, net.engines[1].GM().ClockID)
	}
	if !net.engines[3].IsGM() {
		t.Fatal("isolated sys3 must elect itself")
	}
}

func TestBMCANoTimingLoop(t *testing.T) {
	// Ring topology: sys0-sys1-sys2-sys0. Exactly one system is GM and at
	// least one port must be passive to break the loop.
	net := &bmcaNet{sched: sim.NewScheduler(), streams: sim.NewStreams(62)}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sys%d", i)
		osc := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
		phc := clock.NewPHC(net.sched, osc, nil, clock.PHCConfig{})
		br := netsim.NewBridge(name, net.sched, net.streams.Stream("br/"+name), phc,
			netsim.BridgeConfig{Ports: 2, Residence: map[int]netsim.ResidenceModel{
				netsim.PriorityBestEffort: {Base: time.Microsecond},
			}})
		net.bridges = append(net.bridges, br)
		tx := make([]TxFunc, 2)
		for p := 0; p < 2; p++ {
			p := p
			brCopy := br
			tx[p] = func(f *netsim.Frame) (float64, bool) { return brCopy.Transmit(p, f), true }
		}
		engine, err := NewBMCA(net.sched, tx, BMCAConfig{
			Domain: 0,
			Self:   SystemIdentity{Priority1: 128, ClockClass: 248, ClockID: name},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		br.SetHook(&bmcaHook{engine: engine})
		net.engines = append(net.engines, engine)
	}
	for i := 0; i < 3; i++ {
		j := (i + 1) % 3
		if _, err := netsim.Connect(net.sched, net.streams.Stream(fmt.Sprintf("l%d", i)),
			netsim.LinkConfig{Propagation: 500 * time.Nanosecond},
			net.bridges[i].Port(1), net.bridges[j].Port(0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range net.engines {
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
	}
	net.run(t, 10*time.Second)

	gms := 0
	passives := 0
	for _, e := range net.engines {
		if e.IsGM() {
			gms++
		}
		for _, r := range e.Roles() {
			if r == RolePassive {
				passives++
			}
		}
	}
	if gms != 1 {
		t.Fatalf("%d grandmasters in the ring, want 1", gms)
	}
	if passives == 0 {
		t.Fatal("no passive port in a ring: timing loop not broken")
	}
}

func TestBMCAIgnoresOwnLoopedAnnounce(t *testing.T) {
	sched := sim.NewScheduler()
	engine, err := NewBMCA(sched, []TxFunc{func(*netsim.Frame) (float64, bool) { return 0, true }},
		BMCAConfig{Domain: 0, Self: SystemIdentity{ClockID: "me"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.HandleAnnounce(0, &Announce{Domain: 0, GM: SystemIdentity{ClockID: "me"}})
	if !engine.IsGM() {
		t.Fatal("looped-back own announce dethroned the grandmaster")
	}
}

func TestBMCAValidation(t *testing.T) {
	if _, err := NewBMCA(sim.NewScheduler(), nil, BMCAConfig{}, nil); err == nil {
		t.Fatal("BMCA without ports accepted")
	}
	sched := sim.NewScheduler()
	e, err := NewBMCA(sched, []TxFunc{func(*netsim.Frame) (float64, bool) { return 0, true }},
		BMCAConfig{Self: SystemIdentity{ClockID: "x"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	e.Stop()
}

func TestPortRoleString(t *testing.T) {
	if RoleMaster.String() != "master" || RoleSlave.String() != "slave" ||
		RolePassive.String() != "passive" || RoleDisabled.String() != "disabled" {
		t.Fatal("role strings wrong")
	}
	if PortRole(99).String() != "role(99)" {
		t.Fatal("unknown role string wrong")
	}
}

// TestRelayReconfiguredByBMCA ties a BMCA role change to a relay's
// per-domain port configuration at runtime: after the grandmaster moves to
// the other side of a bridge, the relay's slave port follows.
func TestRelayReconfiguredByBMCA(t *testing.T) {
	h := newHarness(63)
	brClk := h.phc("sw", 2000, 8)
	br := netsim.NewBridge("sw", h.sched, h.streams.Stream("br"), brClk, netsim.BridgeConfig{
		Ports: 2,
		Residence: map[int]netsim.ResidenceModel{
			netsim.PriorityBestEffort: {Base: time.Microsecond, JitterNS: 100},
			netsim.PriorityPTP:        {Base: time.Microsecond, JitterNS: 100},
		},
	})
	gmA := h.nic("gmA", 1000, 0)
	gmB := h.nic("gmB", -1000, 5000)
	h.connect(t, gmA.Port(), br.Port(0), 500*time.Nanosecond, 10)
	h.connect(t, gmB.Port(), br.Port(1), 500*time.Nanosecond, 10)

	relay, err := NewRelay(br, h.sched, h.streams.Stream("relay"), RelayConfig{
		Domains: map[int]DomainPorts{0: {SlavePort: 0, MasterPorts: []int{1}}},
	})
	if err != nil {
		t.Fatalf("relay: %v", err)
	}
	if err := relay.Start(); err != nil {
		t.Fatalf("relay start: %v", err)
	}
	newStation(h, gmA)
	stB := newStation(h, gmB)
	var gotA, gotB int
	stB.addSlave(0, func(OffsetSample) { gotB++ })
	mA := NewMaster(gmA, h.sched, h.streams.Stream("mA"), MasterConfig{Domain: 0, GMIdentity: "gmA"}, nil)
	if err := mA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(h.sched.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if gotB == 0 {
		t.Fatal("initial configuration relays nothing to gmB")
	}

	// The BMCA decides gmB is now the better grandmaster: reconfigure.
	if err := relay.SetDomainPorts(0, DomainPorts{SlavePort: 1, MasterPorts: []int{0}}); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	cfg, ok := relay.DomainPortsFor(0)
	if !ok || cfg.SlavePort != 1 {
		t.Fatalf("configuration not applied: %+v/%v", cfg, ok)
	}
	mA.Stop()
	stA := newStation(h, gmA)
	stA.addSlave(0, func(OffsetSample) { gotA++ })
	mB := NewMaster(gmB, h.sched, h.streams.Stream("mB"), MasterConfig{Domain: 0, GMIdentity: "gmB"}, nil)
	if err := mB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(h.sched.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if gotA == 0 {
		t.Fatal("reconfigured relay does not deliver the new grandmaster's Sync")
	}

	if err := relay.SetDomainPorts(0, DomainPorts{SlavePort: 9}); err == nil {
		t.Fatal("out-of-range slave port accepted")
	}
	if err := relay.SetDomainPorts(0, DomainPorts{SlavePort: 0, MasterPorts: []int{9}}); err == nil {
		t.Fatal("out-of-range master port accepted")
	}
	relay.RemoveDomain(0)
	if _, ok := relay.DomainPortsFor(0); ok {
		t.Fatal("domain still configured after RemoveDomain")
	}
}

// TestSyncSurvivesFrameLoss: lost Sync or FollowUp frames skip intervals
// but do not wedge the slave's matching state.
func TestSyncSurvivesFrameLoss(t *testing.T) {
	h := newHarness(64)
	gm := h.nic("gm", 1000, 0)
	cl := h.nic("cl", -1000, 7777)
	// 10% loss on the link, drawn from its own loss stream.
	if _, err := netsim.Connect(h.sched, h.streams.Stream("lossy"),
		netsim.LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 20, LossProb: 0.1,
			LossRNG: h.streams.Stream("loss/lossy")},
		gm.Port(), cl.Port()); err != nil {
		t.Fatal(err)
	}
	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var samples int
	var lastOffset float64
	var lastTrue float64
	stCL.addSlave(0, func(s OffsetSample) {
		samples++
		lastOffset = s.OffsetNS
		lastTrue = cl.PHC().Now() - gm.PHC().Now()
	})
	m := NewMaster(gm, h.sched, h.streams.Stream("gm"), MasterConfig{Domain: 0}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(h.sched.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// 8 Hz × 60 s = 480 intervals; with ~19% pair loss expect roughly 390.
	if samples < 250 || samples > 470 {
		t.Fatalf("samples = %d under 10%% frame loss, want lossy but flowing", samples)
	}
	if lastOffset == 0 || absF(lastOffset-lastTrue) > 200 {
		t.Fatalf("offsets corrupted by loss: got %v, true %v", lastOffset, lastTrue)
	}
	if cl.Port().Link().Lost() == 0 {
		t.Fatal("link reported no losses at p=0.1")
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestBMCAPathTraceRejection(t *testing.T) {
	sched := sim.NewScheduler()
	engine, err := NewBMCA(sched, []TxFunc{func(*netsim.Frame) (float64, bool) { return 0, true }},
		BMCAConfig{Domain: 0, Self: SystemIdentity{Priority1: 100, ClockID: "me"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A better vector whose path already contains us must be discarded —
	// it is our own stale information reflected by the mesh.
	engine.HandleAnnounce(0, &Announce{
		Domain: 0,
		GM:     SystemIdentity{Priority1: 1, ClockID: "ghost"},
		Path:   []string{"ghost", "sw2", "me", "sw3"},
	})
	if !engine.IsGM() {
		t.Fatal("reflected announce accepted despite path trace")
	}
	// The same vector with a clean path is accepted.
	engine.HandleAnnounce(0, &Announce{
		Domain: 0,
		GM:     SystemIdentity{Priority1: 1, ClockID: "ghost"},
		Path:   []string{"ghost", "sw2"},
	})
	if engine.IsGM() {
		t.Fatal("clean announce rejected")
	}
}

// TestDynamicStationMasterGating: the station's Master role follows its
// BMCA verdict — announcing while it believes it is grandmaster, silent
// once a better clock appears.
func TestDynamicStationMasterGating(t *testing.T) {
	h := newHarness(91)
	a := h.nic("a", 1000, 0)
	b := h.nic("b", -1000, 4000)
	h.connect(t, a.Port(), b.Port(), 500*time.Nanosecond, 10)

	var gotOffsets int
	stA, err := NewDynamicStation("a", a, h.sched, h.streams.Stream("da"),
		SystemIdentity{Priority1: 50, ClockClass: 248, ClockID: "a"}, 0, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := NewDynamicStation("b", b, h.sched, h.streams.Stream("db"),
		SystemIdentity{Priority1: 100, ClockClass: 248, ClockID: "b"}, 0, time.Second,
		func(OffsetSample) { gotOffsets++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(15 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !stA.Engine().IsGM() || stB.Engine().IsGM() {
		t.Fatalf("election wrong: a=%v b=%v", stA.Engine().IsGM(), stB.Engine().IsGM())
	}
	if !stA.Master().Running() {
		t.Fatal("elected grandmaster's Master role not running")
	}
	if stB.Master().Running() {
		t.Fatal("slave station still mastering")
	}
	if gotOffsets < 50 {
		t.Fatalf("slave computed only %d offsets", gotOffsets)
	}
	if stA.String() == "" || stB.String() == "" {
		t.Fatal("empty station strings")
	}
}

// TestDynamicModeNoByzantineDefense: in single-grandmaster dynamic
// operation every station follows the elected clock unconditionally — a
// compromised grandmaster shifts the whole network by its falsification.
// This is the gap the paper's multi-domain FTA closes.
func TestDynamicModeNoByzantineDefense(t *testing.T) {
	h := newHarness(92)
	gmNIC := h.nic("a", 500, 0)
	clNIC := h.nic("b", -500, 3000)
	h.connect(t, gmNIC.Port(), clNIC.Port(), 500*time.Nanosecond, 10)

	var last OffsetSample
	gmSt, err := NewDynamicStation("a", gmNIC, h.sched, h.streams.Stream("da"),
		SystemIdentity{Priority1: 50, ClockClass: 248, ClockID: "a"}, 0, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	clSt, err := NewDynamicStation("b", clNIC, h.sched, h.streams.Stream("db"),
		SystemIdentity{Priority1: 100, ClockClass: 248, ClockID: "b"}, 0, time.Second,
		func(s OffsetSample) { last = s })
	if err != nil {
		t.Fatal(err)
	}
	if err := gmSt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := clSt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(15 * time.Second)); err != nil {
		t.Fatal(err)
	}
	honest := last.OffsetNS

	// The attacker compromises the elected grandmaster. The station clocks
	// free-run in this fixture (no servo), so allow for the ~1 µs/s
	// relative drift over the short observation window.
	gmSt.Master().SetMaliciousOffset(-24000)
	if err := h.sched.RunUntil(sim.Time(17 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if math.Abs((last.OffsetNS-honest)-24000) > 3500 {
		t.Fatalf("falsification not swallowed whole: honest %v, attacked %v — a dynamic single-GM network has no Byzantine defense",
			honest, last.OffsetNS)
	}
}
