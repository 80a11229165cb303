package ptp4l

import (
	"math"
	"strconv"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// rig is a single-bridge testbed: M clock-synchronization VMs, VM i acting
// as grandmaster of domain i, all attached to one time-aware bridge. Every
// stack is instrumented into reg.
type rig struct {
	sched   *sim.Scheduler
	streams *sim.Streams
	reg     *obs.Registry
	bridge  *netsim.Bridge
	relay   *gptp.Relay
	stacks  []*Stack
	links   []*netsim.Link
	events  []Event
}

func newRig(t *testing.T, seed int64, m int, cfgMod func(i int, c *Config)) *rig {
	t.Helper()
	r := &rig{sched: sim.NewScheduler(), streams: sim.NewStreams(seed), reg: obs.NewRegistry()}

	mkPHC := func(name string, ppb, off float64) *clock.PHC {
		osc := clock.NewOscillator(clock.OscillatorConfig{StaticPPB: ppb, WanderPPBPerSqrtSec: 1},
			r.streams.Stream("osc/"+name), r.sched.Now())
		return clock.NewPHC(r.sched, osc, r.streams.Stream("ts/"+name),
			clock.PHCConfig{TimestampJitterNS: 8, InitialOffsetNS: off})
	}

	r.bridge = netsim.NewBridge("sw", r.sched, r.streams.Stream("br"), mkPHC("sw", 6000, 8),
		netsim.BridgeConfig{
			Ports: m,
			Residence: map[int]netsim.ResidenceModel{
				netsim.PriorityBestEffort: {Base: 1500 * time.Nanosecond, JitterNS: 150},
				netsim.PriorityPTP:        {Base: 1200 * time.Nanosecond, JitterNS: 100},
			},
		})

	domains := make([]int, m)
	for i := range domains {
		domains[i] = i
	}
	relayDomains := make(map[int]gptp.DomainPorts, m)
	for d := 0; d < m; d++ {
		masters := make([]int, 0, m-1)
		for p := 0; p < m; p++ {
			if p != d {
				masters = append(masters, p)
			}
		}
		relayDomains[d] = gptp.DomainPorts{SlavePort: d, MasterPorts: masters}
	}

	for i := 0; i < m; i++ {
		name := string(rune('a' + i))
		ppb := clock.UniformPPB(r.streams.Stream("static/"+name), 5000)
		offset := float64(i) * 200 // boot-time disagreement, ns
		nic := netsim.NewNIC(name, r.sched, mkPHC(name, ppb, offset))
		link, err := netsim.Connect(r.sched, r.streams.Stream("link/"+name),
			netsim.LinkConfig{Propagation: 500 * time.Nanosecond, JitterNS: 20},
			nic.Port(), r.bridge.Port(i))
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		r.links = append(r.links, link)
		cfg := Config{
			Name:          name,
			Domains:       domains,
			GMDomain:      i,
			InitialDomain: 0,
			F:             1,
			SyncInterval:  125 * time.Millisecond,
		}
		if cfgMod != nil {
			cfgMod(i, &cfg)
		}
		st, err := New(nic, r.sched, r.streams.Stream("stack/"+name), cfg,
			func(e Event) { r.events = append(r.events, e) })
		if err != nil {
			t.Fatalf("stack: %v", err)
		}
		st.Instrument(r.reg)
		r.stacks = append(r.stacks, st)
	}

	relay, err := gptp.NewRelay(r.bridge, r.sched, r.streams.Stream("relay"),
		gptp.RelayConfig{Domains: relayDomains})
	if err != nil {
		t.Fatalf("relay: %v", err)
	}
	if err := relay.Start(); err != nil {
		t.Fatalf("relay start: %v", err)
	}
	r.relay = relay
	return r
}

func (r *rig) start(t *testing.T) {
	t.Helper()
	for _, s := range r.stacks {
		if err := s.Start(); err != nil {
			t.Fatalf("start %s: %v", s.Name(), err)
		}
	}
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(r.sched.Now().Add(d)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// metric returns the series of the named metric whose labels include
// labels; it fails the test if there is none.
func (r *rig) metric(t *testing.T, name string, labels ...obs.Label) obs.Metric {
	t.Helper()
	for _, m := range r.reg.Snapshot() {
		if m.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && m.Labels[l.Key] == l.Value
		}
		if match {
			return m
		}
	}
	t.Fatalf("no %s series with labels %v", name, labels)
	return obs.Metric{}
}

// aggregations reads stack i's ptp4l_fta_aggregations counter.
func (r *rig) aggregations(t *testing.T, i int) float64 {
	t.Helper()
	return r.metric(t, "ptp4l_fta_aggregations", obs.L("vm", r.stacks[i].Name())).Value
}

// phcSpread is the max pairwise PHC disagreement among running stacks.
func (r *rig) phcSpread() float64 {
	var vals []float64
	for _, s := range r.stacks {
		if s.Running() {
			vals = append(vals, s.NIC().PHC().Now())
		}
	}
	var worst float64
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if d := math.Abs(vals[i] - vals[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestStartupConvergesToFTOperation(t *testing.T) {
	r := newRig(t, 1, 4, nil)
	r.start(t)
	r.run(t, 60*time.Second)
	for i, s := range r.stacks {
		if s.Mode() != ModeFTOperation {
			t.Fatalf("%s still in %v after 60 s", s.Name(), s.Mode())
		}
		if r.aggregations(t, i) == 0 {
			t.Fatalf("%s performed no aggregations", s.Name())
		}
	}
	if spread := r.phcSpread(); spread > 1000 {
		t.Fatalf("PHC spread %v ns after convergence, want < 1 µs", spread)
	}
}

// TestStackMetricsPopulated: a converged stack's obs metrics count an offset
// sample for every domain it slaves to and none for the domain it masters,
// count its FTA aggregations, and hold a plausible servo drift estimate.
func TestStackMetricsPopulated(t *testing.T) {
	r := newRig(t, 31, 4, nil)
	r.start(t)
	r.run(t, 60*time.Second)
	vm := obs.L("vm", r.stacks[1].Name())
	// Stack b slaves to domains 0, 2, 3 (it masters domain 1).
	for _, d := range []int{0, 2, 3} {
		if m := r.metric(t, "ptp4l_offset_ns", vm, obs.L("domain", strconv.Itoa(d))); m.Histogram.Count == 0 {
			t.Fatalf("domain %d has no offset samples", d)
		}
	}
	if m := r.metric(t, "ptp4l_offset_ns", vm, obs.L("domain", "1")); m.Histogram.Count != 0 {
		t.Fatalf("own domain has %d slave offset samples, want 0", m.Histogram.Count)
	}
	if r.aggregations(t, 1) == 0 {
		t.Fatal("no FTA aggregations")
	}
	// Locked onto a 5 ppm oscillator: the integral term is non-zero and
	// within the drift range.
	if d := r.metric(t, "ptp4l_servo_drift_ppb", vm).Value; d == 0 || math.Abs(d) > 200000 {
		t.Fatalf("servo drift %v ppb, implausible", d)
	}
}

func TestSteadyStatePrecision(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	r.start(t)
	r.run(t, 120*time.Second)
	// Sample the spread over 30 s of steady state.
	var worst float64
	for i := 0; i < 30; i++ {
		r.run(t, time.Second)
		if s := r.phcSpread(); s > worst {
			worst = s
		}
	}
	if worst > 800 {
		t.Fatalf("steady-state PHC spread %v ns, want sub-µs", worst)
	}
}

func TestFTAMasksSingleMaliciousGM(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	r.start(t)
	r.run(t, 90*time.Second)
	r.stacks[3].Compromise(-24000) // the paper's attack on one GM
	if !r.stacks[3].Compromised() {
		t.Fatal("Compromised() false after Compromise")
	}
	r.run(t, 120*time.Second)
	// Benign stacks must stay mutually synchronized.
	var vals []float64
	for _, s := range r.stacks[:3] {
		vals = append(vals, s.NIC().PHC().Now())
	}
	var worst float64
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if d := math.Abs(vals[i] - vals[j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 2000 {
		t.Fatalf("benign spread %v ns under one Byzantine GM, want masked (< 2 µs)", worst)
	}
	// The malicious domain must be flagged invalid somewhere.
	flagged := false
	for _, s := range r.stacks[:3] {
		fl := s.FTSHMEM().Flags()
		if len(fl) == 4 && !fl[3] {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("malicious domain never flagged invalid")
	}
}

func TestTwoMaliciousGMsBreakSynchronization(t *testing.T) {
	r := newRig(t, 4, 4, nil)
	r.start(t)
	r.run(t, 90*time.Second)
	base := r.phcSpread()
	r.stacks[0].Compromise(-24000)
	r.stacks[3].Compromise(-24000)
	r.run(t, 300*time.Second)
	after := r.phcSpread()
	if after < 10*base || after < 5000 {
		t.Fatalf("two colluding Byzantine GMs should break sync: spread %v ns -> %v ns", base, after)
	}
}

func TestFailSilentGMToleratedAndRejoins(t *testing.T) {
	r := newRig(t, 5, 4, nil)
	r.start(t)
	r.run(t, 90*time.Second)

	r.stacks[2].Fail()
	r.run(t, 60*time.Second)
	var vals []float64
	for _, s := range r.stacks {
		if s.Running() {
			vals = append(vals, s.NIC().PHC().Now())
		}
	}
	if len(vals) != 3 {
		t.Fatalf("running stacks = %d, want 3", len(vals))
	}
	var worst float64
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if d := math.Abs(vals[i] - vals[j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1500 {
		t.Fatalf("survivors' spread %v ns with a fail-silent GM, want bounded", worst)
	}

	if err := r.stacks[2].Reboot(); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	r.run(t, 120*time.Second)
	if r.stacks[2].Mode() != ModeFTOperation {
		t.Fatalf("rebooted GM still in %v", r.stacks[2].Mode())
	}
	if spread := r.phcSpread(); spread > 1500 {
		t.Fatalf("spread %v ns after rejoin, want bounded", spread)
	}
}

func TestRebootWhileInitialGMDown(t *testing.T) {
	// A node rebooting while the initial domain's GM is fail-silent must
	// still rejoin via the fallback start-up reference.
	r := newRig(t, 6, 4, nil)
	r.start(t)
	r.run(t, 90*time.Second)
	r.stacks[0].Fail() // initial domain's GM
	r.run(t, 10*time.Second)
	r.stacks[2].Fail()
	r.run(t, 10*time.Second)
	if err := r.stacks[2].Reboot(); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	r.run(t, 180*time.Second)
	if r.stacks[2].Mode() != ModeFTOperation {
		t.Fatalf("stack c rejoining without the initial GM: mode %v", r.stacks[2].Mode())
	}
}

func TestGateLimitsAggregationRate(t *testing.T) {
	r := newRig(t, 7, 4, nil)
	r.start(t)
	r.run(t, 30*time.Second)
	aggBefore := r.aggregations(t, 1)
	r.run(t, 10*time.Second)
	aggAfter := r.aggregations(t, 1)
	got := aggAfter - aggBefore
	// At S = 125 ms the gate admits at most one aggregation per interval:
	// ≤ 80 in 10 s (plus scheduling slack).
	if got > 85 {
		t.Fatalf("%v aggregations in 10 s, gate must cap at ~80", got)
	}
	if got < 40 {
		t.Fatalf("only %v aggregations in 10 s, expected ~80", got)
	}
}

func TestEventsEmitted(t *testing.T) {
	r := newRig(t, 8, 4, func(i int, c *Config) {
		c.TxTimestampTimeoutProb = 0.05
	})
	r.start(t)
	r.run(t, 120*time.Second)
	var modeChanges, faults int
	for _, e := range r.events {
		switch e.Kind {
		case EventModeChange:
			modeChanges++
		case EventFault:
			faults++
		}
	}
	if modeChanges < 4 {
		t.Fatalf("mode changes = %d, want >= 4 (every stack enters FT)", modeChanges)
	}
	if faults == 0 {
		t.Fatal("no transient faults at p=0.05 over 120 s")
	}
}

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	streams := sim.NewStreams(1)
	osc := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
	phc := clock.NewPHC(sched, osc, nil, clock.PHCConfig{})
	nic := netsim.NewNIC("x", sched, phc)
	if _, err := New(nic, sched, streams.Stream("x"), Config{Name: "x"}, nil); err == nil {
		t.Fatal("empty domain list accepted")
	}
}

func TestDoubleStartAndBadReboot(t *testing.T) {
	r := newRig(t, 9, 2, func(i int, c *Config) { c.F = 0 })
	r.start(t)
	if err := r.stacks[0].Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if err := r.stacks[0].Reboot(); err == nil {
		t.Fatal("reboot while running accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeStartup.String() != "startup" || ModeFTOperation.String() != "ft_operation" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}
