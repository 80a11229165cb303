package measure

import (
	"math"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// testNet wires a collector VM and three agent VMs through one switch with
// a measurement VLAN.
type testNet struct {
	sched     *sim.Scheduler
	streams   *sim.Streams
	collector *Collector
	agents    []*Agent
	times     map[string]float64 // synctime offsets per VM
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	tn := &testNet{
		sched:   sim.NewScheduler(),
		streams: sim.NewStreams(55),
		times:   map[string]float64{"c12": 0, "c31": 120, "c32": -80, "c41": 40},
	}
	mkNIC := func(name string) *netsim.NIC {
		osc := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
		phc := clock.NewPHC(tn.sched, osc, nil, clock.PHCConfig{})
		return netsim.NewNIC(name, tn.sched, phc)
	}
	oscB := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
	br := netsim.NewBridge("sw", tn.sched, tn.streams.Stream("br"),
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
		nic := mkNIC(name)
		if _, err := netsim.Connect(tn.sched, tn.streams.Stream("l/"+name),
			netsim.LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 20},
			nic.Port(), br.Port(i)); err != nil {
			t.Fatalf("connect: %v", err)
		}
		br.AddRoute(netsim.Address("nic/"+name), i)
		br.AddGroupMember(MulticastAddr, i)
		if i == 0 {
			tn.collector = NewCollector(name, tn.sched, nic, CollectorConfig{
				Exclude: []string{"c12"}, // the co-located VM, like the paper's c_m1
			})
			nic.SetHandler(tn.collector.Handle)
			continue
		}
		name := name
		ag := NewAgent(name, tn.sched, nic, func() (float64, bool) {
			// Synthetic CLOCK_SYNCTIME: true time plus a per-VM offset.
			return float64(tn.sched.Now()) + tn.times[name], true
		})
		nic.SetHandler(ag.Handle)
		tn.agents = append(tn.agents, ag)
	}
	return tn
}

func (tn *testNet) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := tn.sched.RunUntil(tn.sched.Now().Add(d)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestCollectorComputesPiStar(t *testing.T) {
	tn := newTestNet(t)
	if err := tn.collector.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	tn.run(t, 30*time.Second)
	samples := tn.collector.Samples()
	if len(samples) < 25 {
		t.Fatalf("samples = %d, want ~29", len(samples))
	}
	// Receivers: c31 (+120), c32 (−80), c41 (+40); c12 excluded. True
	// spread = 200 ns; probes add per-path latency differences of a few
	// hundred ns.
	st := ComputeStats(samples)
	if st.MeanNS < 150 || st.MeanNS > 800 {
		t.Fatalf("mean Π* = %.0f ns, want ≈200 ns + path jitter", st.MeanNS)
	}
	for _, s := range samples {
		if s.Replies != 3 {
			t.Fatalf("replies = %d, want 3 (c12 excluded, sender excluded)", s.Replies)
		}
	}
}

func TestCollectorExcludesConfiguredVM(t *testing.T) {
	tn := newTestNet(t)
	// Give the excluded VM an enormous offset; Π* must not see it.
	tn.times["c12"] = 1e9
	if err := tn.collector.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	tn.run(t, 10*time.Second)
	st := ComputeStats(tn.collector.Samples())
	if st.MaxNS > 1e6 {
		t.Fatalf("excluded VM leaked into Π*: max = %.0f ns", st.MaxNS)
	}
}

func TestCollectorGamma(t *testing.T) {
	tn := newTestNet(t)
	if err := tn.collector.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	tn.run(t, 60*time.Second)
	gamma := tn.collector.Gamma()
	if gamma <= 0 {
		t.Fatal("gamma not measured")
	}
	if gamma > 5*time.Microsecond {
		t.Fatalf("gamma = %v, implausibly large for the configured jitter", gamma)
	}
	if min, max := tn.collector.pathMin, tn.collector.pathMax; len(min) != 3 || len(max) != 3 {
		t.Fatalf("path extrema over %d/%d VMs, want 3", len(min), len(max))
	}
}

func TestCollectorToleratesSilentAgents(t *testing.T) {
	tn := newTestNet(t)
	if err := tn.collector.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	tn.run(t, 5*time.Second)
	// Take down two of the three counted receivers (c31, c32): only c41
	// remains, below MinReplies=2 → no further samples.
	tn.agents[1].nic.SetDown(true)
	tn.agents[2].nic.SetDown(true)
	before := len(tn.collector.Samples())
	tn.run(t, 5*time.Second)
	after := len(tn.collector.Samples())
	if after != before {
		t.Fatalf("samples advanced (%d -> %d) with only one live receiver", before, after)
	}
}

func TestComputeStats(t *testing.T) {
	samples := []Sample{
		{AtSec: 1, PiStarNS: 100},
		{AtSec: 2, PiStarNS: 300},
		{AtSec: 3, PiStarNS: 200},
	}
	st := ComputeStats(samples)
	if st.MeanNS != 200 || st.MinNS != 100 || st.MaxNS != 300 || st.MaxAtSec != 2 {
		t.Fatalf("stats = %+v", st)
	}
	want := math.Sqrt((100.0*100 + 100*100) / 3)
	if math.Abs(st.StdNS-want) > 1e-9 {
		t.Fatalf("std = %v, want %v", st.StdNS, want)
	}
	if ComputeStats(nil).Count != 0 {
		t.Fatal("empty stats should be zero")
	}
	if st.String() == "" {
		t.Fatal("empty string")
	}
}

func TestAggregateWindows(t *testing.T) {
	var samples []Sample
	for i := 0; i < 300; i++ {
		samples = append(samples, Sample{AtSec: float64(i), PiStarNS: float64(i % 10)})
	}
	wins := Aggregate(samples, 120*time.Second)
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	if wins[0].StartSec != 0 || wins[1].StartSec != 120 || wins[2].StartSec != 240 {
		t.Fatalf("window starts wrong: %+v", wins)
	}
	if wins[0].Count != 120 || wins[2].Count != 60 {
		t.Fatalf("window counts wrong: %+v", wins)
	}
	if wins[0].MinNS != 0 || wins[0].MaxNS != 9 {
		t.Fatalf("window extrema wrong: %+v", wins[0])
	}
	if Aggregate(nil, time.Minute) != nil {
		t.Fatal("empty aggregate should be nil")
	}
}

func TestHistogram(t *testing.T) {
	samples := []Sample{
		{PiStarNS: 5}, {PiStarNS: 15}, {PiStarNS: 15}, {PiStarNS: 95}, {PiStarNS: 1000},
	}
	h := ComputeHistogram(samples, 10, 100)
	if len(h.Counts) != 10 {
		t.Fatalf("buckets = %d, want 10", len(h.Counts))
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow)
	}
}

func TestQuantile(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 100; i++ {
		samples = append(samples, Sample{PiStarNS: float64(i)})
	}
	if q := Quantile(samples, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(samples, 1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	med := Quantile(samples, 0.5)
	if med < 50 || med > 51 {
		t.Fatalf("median = %v", med)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestViolationCount(t *testing.T) {
	samples := []Sample{{PiStarNS: 5}, {PiStarNS: 15}, {PiStarNS: 25}}
	if got := ViolationCount(samples, 10); got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}
}

func TestLatencyTracker(t *testing.T) {
	lt := NewLatencyTracker()
	if _, ok := lt.ReadingError(); ok {
		t.Fatal("empty tracker reported a reading error")
	}
	lt.Observe("a->b", 4120*time.Nanosecond)
	lt.Observe("a->b", 5000*time.Nanosecond)
	lt.Observe("c->d", 9188*time.Nanosecond)
	e, ok := lt.ReadingError()
	if !ok {
		t.Fatal("no reading error")
	}
	if e != 5068*time.Nanosecond { // the paper's E
		t.Fatalf("E = %v, want 5068ns", e)
	}
	if lt.Paths() != 2 {
		t.Fatalf("paths = %d, want 2", lt.Paths())
	}
	min, max, ok := lt.Extrema()
	if !ok || min != 4120*time.Nanosecond || max != 9188*time.Nanosecond {
		t.Fatalf("extrema = %v/%v", min, max)
	}
}
