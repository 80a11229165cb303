package measure

import (
	"math"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// snapNet is the snapshot-capable variant of testNet: it retains every
// stateful component so the whole measurement network can be captured and
// rewound, the way core.System does it.
type snapNet struct {
	sched     *sim.Scheduler
	streams   *sim.Streams
	bridge    *netsim.Bridge
	links     []*netsim.Link
	nics      []*netsim.NIC
	collector *Collector
	agents    []*Agent
}

func newSnapNet(t *testing.T, cfg CollectorConfig) *snapNet {
	t.Helper()
	tn := &snapNet{
		sched:   sim.NewScheduler(),
		streams: sim.NewStreams(55),
	}
	times := map[string]float64{"c12": 0, "c31": 120, "c32": -80, "c41": 40}
	oscB := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
	tn.bridge = netsim.NewBridge("sw", tn.sched, tn.streams.Stream("br"),
		clock.NewPHC(tn.sched, oscB, nil, clock.PHCConfig{}),
		netsim.BridgeConfig{
			Ports: 5,
			Residence: map[int]netsim.ResidenceModel{
				netsim.PriorityBestEffort: {Base: 1500 * time.Nanosecond, JitterNS: 200},
				netsim.PriorityMeasure:    {Base: 1000 * time.Nanosecond, JitterNS: 100},
			},
		})

	names := []string{"c22", "c12", "c31", "c32", "c41"}
	for i, name := range names {
		osc := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
		phc := clock.NewPHC(tn.sched, osc, nil, clock.PHCConfig{})
		nic := netsim.NewNIC(name, tn.sched, phc)
		tn.nics = append(tn.nics, nic)
		link, err := netsim.Connect(tn.sched, tn.streams.Stream("l/"+name),
			netsim.LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 20},
			nic.Port(), tn.bridge.Port(i))
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		tn.links = append(tn.links, link)
		tn.bridge.AddRoute(netsim.Address("nic/"+name), i)
		tn.bridge.AddGroupMember(MulticastAddr, i)
		if i == 0 {
			tn.collector = NewCollector(name, tn.sched, nic, cfg)
			nic.SetHandler(tn.collector.Handle)
			continue
		}
		name := name
		ag := NewAgent(name, tn.sched, nic, func() (float64, bool) {
			return float64(tn.sched.Now()) + times[name], true
		})
		nic.SetHandler(ag.Handle)
		tn.agents = append(tn.agents, ag)
	}
	return tn
}

// snapshot captures every stateful component, in the same shape
// core.System.Snapshot composes.
type snapNetState struct {
	sched, streams, bridge, collector any
	links, nics, agents               []any
}

func (tn *snapNet) snapshot() *snapNetState {
	st := &snapNetState{
		sched:     tn.sched.Snapshot(),
		streams:   tn.streams.Snapshot(),
		bridge:    tn.bridge.Snapshot(),
		collector: tn.collector.Snapshot(),
	}
	for _, l := range tn.links {
		st.links = append(st.links, l.Snapshot())
	}
	for _, n := range tn.nics {
		st.nics = append(st.nics, n.Snapshot())
	}
	for _, a := range tn.agents {
		st.agents = append(st.agents, a.Snapshot())
	}
	return st
}

func (tn *snapNet) restore(st *snapNetState) {
	tn.sched.Restore(st.sched)
	tn.streams.Restore(st.streams)
	tn.bridge.Restore(st.bridge)
	for i, l := range tn.links {
		l.Restore(st.links[i])
	}
	for i, n := range tn.nics {
		n.Restore(st.nics[i])
	}
	tn.collector.Restore(st.collector)
	for i, a := range tn.agents {
		a.Restore(st.agents[i])
	}
}

func (tn *snapNet) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := tn.sched.RunUntil(tn.sched.Now().Add(d)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestCollectorForkMidWindow is the regression test for windowed-state
// restore: the network is snapshotted while a probe's collect window is
// still open (its finalize pending), run on, rewound, and run again. The
// fork must not inherit any sample or reply the prefix produced after the
// snapshot, and the replayed continuation must match the first bit for bit.
func TestCollectorForkMidWindow(t *testing.T) {
	tn := newSnapNet(t, CollectorConfig{Exclude: []string{"c12"}})
	if err := tn.collector.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}

	// Probe fires at 10 s, its collect window closes at 10.5 s: 10.2 s is
	// mid-window, with the finalize event still queued.
	tn.run(t, 10*time.Second+200*time.Millisecond)
	open := 0
	for _, w := range tn.collector.windows {
		if w.open {
			open++
		}
	}
	if open == 0 {
		t.Fatal("no open collect window at the snapshot instant; the test would not exercise mid-window state")
	}
	snapSamples := len(tn.collector.Samples())
	st := tn.snapshot()

	tn.run(t, 2*time.Second)
	first := append([]Sample(nil), tn.collector.Samples()...)
	if len(first) <= snapSamples {
		t.Fatalf("continuation yielded no new samples (%d before, %d after)", snapSamples, len(first))
	}

	tn.restore(st)
	if got := len(tn.collector.Samples()); got != snapSamples {
		t.Fatalf("fork inherited samples from the prefix window: %d samples after restore, want %d",
			got, snapSamples)
	}
	restoredOpen := 0
	for _, w := range tn.collector.windows {
		if w.open {
			restoredOpen++
		}
	}
	if restoredOpen != open {
		t.Fatalf("open windows after restore = %d, want %d", restoredOpen, open)
	}

	tn.run(t, 2*time.Second)
	second := tn.collector.Samples()
	if len(second) != len(first) {
		t.Fatalf("replayed continuation yielded %d samples, first yielded %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Seq != b.Seq || a.Replies != b.Replies ||
			math.Float64bits(a.AtSec) != math.Float64bits(b.AtSec) ||
			math.Float64bits(a.PiStarNS) != math.Float64bits(b.PiStarNS) {
			t.Fatalf("sample %d diverged on replay: first %+v, second %+v", i, a, b)
		}
	}
}
