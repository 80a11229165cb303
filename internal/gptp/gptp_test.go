package gptp

import (
	"math"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

type harness struct {
	sched   *sim.Scheduler
	streams *sim.Streams
}

func newHarness(seed int64) *harness {
	return &harness{sched: sim.NewScheduler(), streams: sim.NewStreams(seed)}
}

func (h *harness) phc(name string, staticPPB, offsetNS float64) *clock.PHC {
	osc := clock.NewOscillator(clock.OscillatorConfig{StaticPPB: staticPPB, WanderPPBPerSqrtSec: 1},
		h.streams.Stream("osc/"+name), h.sched.Now())
	return clock.NewPHC(h.sched, osc, h.streams.Stream("ts/"+name),
		clock.PHCConfig{TimestampJitterNS: 8, InitialOffsetNS: offsetNS})
}

func (h *harness) nic(name string, staticPPB, offsetNS float64) *netsim.NIC {
	return netsim.NewNIC(name, h.sched, h.phc(name, staticPPB, offsetNS))
}

func (h *harness) connect(t *testing.T, a, b *netsim.Port, prop time.Duration, jitterNS float64) {
	t.Helper()
	_, err := netsim.Connect(h.sched, h.streams.Stream("link/"+a.Name),
		netsim.LinkConfig{Propagation: prop, JitterNS: jitterNS}, a, b)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
}

// station is a minimal end-station network stack: pdelay on the NIC port
// plus per-domain slaves.
type station struct {
	nic    *netsim.NIC
	ld     *LinkDelay
	slaves map[int]*Slave
}

func newStation(h *harness, nic *netsim.NIC) *station {
	st := &station{nic: nic, slaves: make(map[int]*Slave)}
	st.ld = NewLinkDelay(nic.DeviceName(), h.sched, h.streams.Stream("pd/"+nic.DeviceName()),
		func(f *netsim.Frame) (float64, bool) {
			ts, err := nic.Send(f)
			return ts, err == nil
		}, LinkDelayConfig{})
	nic.SetHandler(func(f *netsim.Frame, rxTS float64) {
		switch m := f.Payload.(type) {
		case *PdelayReq, *PdelayResp, *PdelayRespFollowUp:
			st.ld.HandleFrame(f.Payload, rxTS)
		case *Sync:
			if s, ok := st.slaves[m.Domain]; ok {
				s.HandleSync(m, rxTS)
			}
		case *FollowUp:
			if s, ok := st.slaves[m.Domain]; ok {
				s.HandleFollowUp(m)
			}
		}
	})
	return st
}

func (st *station) addSlave(domain int, onOffset func(OffsetSample)) *Slave {
	s := NewSlave(domain, st.ld, onOffset)
	st.slaves[domain] = s
	return s
}

func TestPdelayMeasuresLinkDelay(t *testing.T) {
	h := newHarness(1)
	a := h.nic("a", 2000, 0)
	b := h.nic("b", -3000, 5e6)
	h.connect(t, a.Port(), b.Port(), 500*time.Nanosecond, 20)
	sa, sb := newStation(h, a), newStation(h, b)
	if err := sa.ld.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := sb.ld.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := h.sched.RunUntil(sim.Time(30 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, st := range []*station{sa, sb} {
		d, ok := st.ld.MeanDelayNS()
		if !ok {
			t.Fatalf("%s: no pdelay measurement", st.nic.DeviceName())
		}
		if math.Abs(d-500) > 60 {
			t.Fatalf("%s: mean link delay %v ns, want ≈500", st.nic.DeviceName(), d)
		}
		if st.ld.Samples() < 25 {
			t.Fatalf("%s: only %d samples in 30 s", st.nic.DeviceName(), st.ld.Samples())
		}
		if rr := st.ld.NeighborRateRatio(); math.Abs(rr-1) > 100e-6 {
			t.Fatalf("%s: neighbor rate ratio %v implausible", st.nic.DeviceName(), rr)
		}
	}
}

func TestMasterSyncDirectLink(t *testing.T) {
	h := newHarness(2)
	gm := h.nic("gm", 1000, 0)
	cl := h.nic("cl", -2000, 12345) // client clock 12.345 µs ahead
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 20)

	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}

	var samples []OffsetSample
	var trueDiffs []float64
	stCL.addSlave(0, func(s OffsetSample) {
		samples = append(samples, s)
		trueDiffs = append(trueDiffs, cl.PHC().Now()-gm.PHC().Now())
	})

	m := NewMaster(gm, h.sched, h.streams.Stream("gm"), MasterConfig{Domain: 0, GMIdentity: "gm"}, nil)
	if err := m.Start(); err != nil {
		t.Fatalf("master start: %v", err)
	}
	if err := h.sched.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(samples) < 60 {
		t.Fatalf("only %d offset samples in 10 s at 8 Hz", len(samples))
	}
	// After pdelay settles, the measured offset must track the true clock
	// difference (~12.3 µs plus drift) within ~100 ns. (The callback runs
	// ~1 ms after the Sync receipt; drift over that is a few ns.)
	last := samples[len(samples)-1]
	trueDiff := trueDiffs[len(trueDiffs)-1]
	if math.Abs(last.OffsetNS-trueDiff) > 120 {
		t.Fatalf("offset %v ns vs true clock difference %v ns", last.OffsetNS, trueDiff)
	}
	syncs, fus := m.Counters()
	if syncs == 0 || fus == 0 || fus > syncs {
		t.Fatalf("counters implausible: syncs=%d followups=%d", syncs, fus)
	}
}

func TestMasterLaunchTimesAligned(t *testing.T) {
	// Two masters with synchronized PHCs must launch Syncs at nearly the
	// same instants (the paper's synchronous transmission requirement).
	h := newHarness(3)
	gm1 := h.nic("gm1", 500, 0)
	gm2 := h.nic("gm2", -500, 0)
	cl1 := h.nic("cl1", 0, 0)
	cl2 := h.nic("cl2", 0, 0)
	h.connect(t, gm1.Port(), cl1.Port(), 500*time.Nanosecond, 10)
	h.connect(t, gm2.Port(), cl2.Port(), 500*time.Nanosecond, 10)

	var t1s, t2s []sim.Time
	cl1.SetHandler(func(f *netsim.Frame, _ float64) {
		if _, ok := f.Payload.(*Sync); ok {
			t1s = append(t1s, h.sched.Now())
		}
	})
	cl2.SetHandler(func(f *netsim.Frame, _ float64) {
		if _, ok := f.Payload.(*Sync); ok {
			t2s = append(t2s, h.sched.Now())
		}
	})
	m1 := NewMaster(gm1, h.sched, nil, MasterConfig{Domain: 0}, nil)
	m2 := NewMaster(gm2, h.sched, nil, MasterConfig{Domain: 1}, nil)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	n := len(t1s)
	if len(t2s) < n {
		n = len(t2s)
	}
	if n < 30 {
		t.Fatalf("too few syncs: %d/%d", len(t1s), len(t2s))
	}
	for i := 0; i < n; i++ {
		if d := t1s[i].Sub(t2s[i]); d > 10*time.Microsecond || d < -10*time.Microsecond {
			t.Fatalf("sync %d launch skew %v, want within ~drift bounds", i, d)
		}
	}
}

func TestMasterTransientFaults(t *testing.T) {
	h := newHarness(4)
	gm := h.nic("gm", 0, 0)
	cl := h.nic("cl", 0, 0)
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 10)
	newStation(h, cl)

	faults := map[string]int{}
	m := NewMaster(gm, h.sched, h.streams.Stream("flt"), MasterConfig{
		Domain:                 0,
		TxTimestampTimeoutProb: 0.2,
		DeadlineMissProb:       0.1,
	}, func(kind string) { faults[kind]++ })
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if faults[FaultTxTimestampTimeout] == 0 {
		t.Fatal("no tx timestamp timeout faults at p=0.2")
	}
	if faults[FaultDeadlineMiss] == 0 {
		t.Fatal("no deadline miss faults at p=0.1")
	}
	syncs, fus := m.Counters()
	if fus >= syncs {
		t.Fatalf("timeout faults must suppress FollowUps: syncs=%d fus=%d", syncs, fus)
	}
}

func TestMasterStopStart(t *testing.T) {
	h := newHarness(5)
	gm := h.nic("gm", 0, 0)
	cl := h.nic("cl", 0, 0)
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 0)
	newStation(h, cl)
	m := NewMaster(gm, h.sched, nil, MasterConfig{Domain: 0}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if err := h.sched.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	syncsBefore, _ := m.Counters()
	if err := h.sched.RunUntil(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	syncsAfter, _ := m.Counters()
	// At most one Sync can still be in flight in the ETF queue at Stop.
	if syncsAfter > syncsBefore+1 {
		t.Fatalf("master kept sending after Stop: %d -> %d", syncsBefore, syncsAfter)
	}
	if m.Running() {
		t.Fatal("Running() true after Stop")
	}
}

// buildRelayTopology wires GM → bridge → client and returns the pieces.
func buildRelayTopology(t *testing.T, h *harness) (*netsim.NIC, *netsim.NIC, *Relay) {
	t.Helper()
	gm := h.nic("gm", 4000, 0)
	cl := h.nic("cl", -4000, 50000)
	brClk := h.phc("sw", 7000, 8)
	br := netsim.NewBridge("sw", h.sched, h.streams.Stream("br/sw"), brClk, netsim.BridgeConfig{
		Ports: 2,
		Residence: map[int]netsim.ResidenceModel{
			netsim.PriorityBestEffort: {Base: 1500 * time.Nanosecond, JitterNS: 150},
			netsim.PriorityPTP:        {Base: 1200 * time.Nanosecond, JitterNS: 100},
		},
	})
	h.connect(t, gm.Port(), br.Port(0), 500*time.Nanosecond, 20)
	h.connect(t, cl.Port(), br.Port(1), 500*time.Nanosecond, 20)
	relay, err := NewRelay(br, h.sched, h.streams.Stream("relay"), RelayConfig{
		Domains: map[int]DomainPorts{0: {SlavePort: 0, MasterPorts: []int{1}}},
	})
	if err != nil {
		t.Fatalf("relay: %v", err)
	}
	if err := relay.Start(); err != nil {
		t.Fatalf("relay start: %v", err)
	}
	return gm, cl, relay
}

func TestRelayCorrectionCompensatesResidence(t *testing.T) {
	h := newHarness(6)
	gm, cl, _ := buildRelayTopology(t, h)

	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []OffsetSample
	var trueDiffs []float64
	stCL.addSlave(0, func(s OffsetSample) {
		samples = append(samples, s)
		trueDiffs = append(trueDiffs, cl.PHC().Now()-gm.PHC().Now())
	})
	m := NewMaster(gm, h.sched, h.streams.Stream("gm"), MasterConfig{Domain: 0, GMIdentity: "gm"}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(20 * time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(samples) < 100 {
		t.Fatalf("only %d samples", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Correction < 1000 {
		t.Fatalf("correction %v ns does not include bridge residence", last.Correction)
	}
	trueDiff := trueDiffs[len(trueDiffs)-1]
	if math.Abs(last.OffsetNS-trueDiff) > 200 {
		t.Fatalf("offset %v vs true %v: residence not compensated", last.OffsetNS, trueDiff)
	}
	// The offset error must be far below the raw residence time.
	if math.Abs(last.OffsetNS-trueDiff) > 0.2*last.Correction {
		t.Fatalf("offset error %v ns is a large fraction of correction %v ns",
			math.Abs(last.OffsetNS-trueDiff), last.Correction)
	}
}

func TestMaliciousMasterShiftsOffsets(t *testing.T) {
	h := newHarness(7)
	gm := h.nic("gm", 0, 0)
	cl := h.nic("cl", 0, 0)
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 10)
	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []OffsetSample
	stCL.addSlave(0, func(s OffsetSample) { samples = append(samples, s) })
	m := NewMaster(gm, h.sched, nil, MasterConfig{Domain: 0}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	honest := samples[len(samples)-1].OffsetNS
	m.SetMaliciousOffset(-24000) // the paper's attack
	if err := h.sched.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	attacked := samples[len(samples)-1].OffsetNS
	if math.Abs((attacked-honest)-24000) > 200 {
		t.Fatalf("malicious origin offset not reflected: honest=%v attacked=%v", honest, attacked)
	}
}

func TestRelayIgnoresSyncOnWrongPort(t *testing.T) {
	h := newHarness(8)
	_, cl, _ := buildRelayTopology(t, h)
	// Inject a Sync from the client side (port 1), which is not the
	// domain's slave port: the relay must drop it.
	stCL := newStation(h, cl)
	received := 0
	stCL.addSlave(0, func(OffsetSample) { received++ })
	_, err := cl.Send(newFrame(netsim.PoolOf(h.sched), "nic/cl", &Sync{Domain: 0, Seq: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if received != 0 {
		t.Fatal("Sync injected on a master port was relayed")
	}
}

func TestSlaveSkipsLostSync(t *testing.T) {
	ld := NewLinkDelay("x", sim.NewScheduler(), nil, func(*netsim.Frame) (float64, bool) { return 0, true }, LinkDelayConfig{})
	var got []OffsetSample
	s := NewSlave(0, ld, func(o OffsetSample) { got = append(got, o) })
	s.HandleFollowUp(&FollowUp{Domain: 0, Seq: 9, PreciseOrigin: 100})
	if len(got) != 0 {
		t.Fatal("FollowUp without Sync produced a sample")
	}
	s.HandleSync(&Sync{Domain: 0, Seq: 10}, 1000)
	s.HandleFollowUp(&FollowUp{Domain: 0, Seq: 10, PreciseOrigin: 400, Correction: 100})
	if len(got) != 1 {
		t.Fatalf("expected 1 sample, got %d", len(got))
	}
	if got[0].OffsetNS != 500 {
		t.Fatalf("offset = %v, want 1000-400-100-0 = 500", got[0].OffsetNS)
	}
	// Duplicate FollowUp must not produce another sample.
	s.HandleFollowUp(&FollowUp{Domain: 0, Seq: 10, PreciseOrigin: 400, Correction: 100})
	if len(got) != 1 {
		t.Fatal("duplicate FollowUp produced a sample")
	}
}

func TestSlaveIgnoresOtherDomains(t *testing.T) {
	ld := NewLinkDelay("x", sim.NewScheduler(), nil, func(*netsim.Frame) (float64, bool) { return 0, true }, LinkDelayConfig{})
	var got int
	s := NewSlave(2, ld, func(OffsetSample) { got++ })
	s.HandleSync(&Sync{Domain: 1, Seq: 1}, 0)
	s.HandleFollowUp(&FollowUp{Domain: 1, Seq: 1})
	if got != 0 {
		t.Fatal("slave processed a foreign domain")
	}
}

func TestRelayRejectsBadSlavePort(t *testing.T) {
	h := newHarness(9)
	br := netsim.NewBridge("sw", h.sched, nil, h.phc("sw", 0, 0), netsim.BridgeConfig{Ports: 2,
		Residence: map[int]netsim.ResidenceModel{netsim.PriorityBestEffort: {Base: time.Microsecond}}})
	_, err := NewRelay(br, h.sched, nil, RelayConfig{Domains: map[int]DomainPorts{0: {SlavePort: 5}}})
	if err == nil {
		t.Fatal("relay accepted out-of-range slave port")
	}
}

func TestOneStepSyncDirectLink(t *testing.T) {
	h := newHarness(81)
	gm := h.nic("gm", 2000, 0)
	cl := h.nic("cl", -2000, 9999)
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 20)
	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []OffsetSample
	var trueDiffs []float64
	stCL.addSlave(0, func(s OffsetSample) {
		samples = append(samples, s)
		trueDiffs = append(trueDiffs, cl.PHC().Now()-gm.PHC().Now())
	})
	m := NewMaster(gm, h.sched, h.streams.Stream("gm"),
		MasterConfig{Domain: 0, GMIdentity: "gm", OneStep: true}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 60 {
		t.Fatalf("samples = %d", len(samples))
	}
	// No FollowUps in one-step operation.
	syncs, fus := m.Counters()
	if syncs == 0 || fus != 0 {
		t.Fatalf("counters: syncs=%d followups=%d, want followups=0", syncs, fus)
	}
	last := samples[len(samples)-1]
	if math.Abs(last.OffsetNS-trueDiffs[len(trueDiffs)-1]) > 120 {
		t.Fatalf("one-step offset %v vs true %v", last.OffsetNS, trueDiffs[len(trueDiffs)-1])
	}
	if last.GMIdentity != "gm" {
		t.Fatalf("GM identity %q", last.GMIdentity)
	}
}

func TestOneStepSyncThroughRelay(t *testing.T) {
	h := newHarness(82)
	gm, cl, _ := buildRelayTopology(t, h)
	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []OffsetSample
	var trueDiffs []float64
	stCL.addSlave(0, func(s OffsetSample) {
		samples = append(samples, s)
		trueDiffs = append(trueDiffs, cl.PHC().Now()-gm.PHC().Now())
	})
	m := NewMaster(gm, h.sched, h.streams.Stream("gm"),
		MasterConfig{Domain: 0, GMIdentity: "gm", OneStep: true}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 100 {
		t.Fatalf("samples = %d", len(samples))
	}
	last := samples[len(samples)-1]
	// The relay must have rewritten the correction on the fly.
	if last.Correction < 1000 {
		t.Fatalf("correction %v ns missing relay residence", last.Correction)
	}
	if math.Abs(last.OffsetNS-trueDiffs[len(trueDiffs)-1]) > 200 {
		t.Fatalf("one-step offset %v vs true %v through relay",
			last.OffsetNS, trueDiffs[len(trueDiffs)-1])
	}
}

func TestOneStepMaliciousMaster(t *testing.T) {
	h := newHarness(83)
	gm := h.nic("gm", 0, 0)
	cl := h.nic("cl", 0, 0)
	h.connect(t, gm.Port(), cl.Port(), 500*time.Nanosecond, 10)
	stGM, stCL := newStation(h, gm), newStation(h, cl)
	if err := stGM.ld.Start(); err != nil {
		t.Fatal(err)
	}
	if err := stCL.ld.Start(); err != nil {
		t.Fatal(err)
	}
	var last float64
	stCL.addSlave(0, func(s OffsetSample) { last = s.OffsetNS })
	m := NewMaster(gm, h.sched, nil, MasterConfig{Domain: 0, OneStep: true}, nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.sched.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	honest := last
	m.SetMaliciousOffset(-24000)
	if err := h.sched.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if math.Abs((last-honest)-24000) > 200 {
		t.Fatalf("one-step attack not reflected: honest %v, attacked %v", honest, last)
	}
}
