package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// testTopo is a 2-bridge, 2-NIC diamond: n1 - sw1 - sw2 - n2, with names
// matching the core convention ("sw1-sw2" mesh link, NIC links named after
// the NIC device).
type testTopo struct {
	sched   *sim.Scheduler
	streams *sim.Streams
	links   map[string]*netsim.Link
	bridges map[string]*netsim.Bridge
	nics    map[string]*netsim.NIC
}

func (t *testTopo) Link(name string) *netsim.Link     { return t.links[name] }
func (t *testTopo) Bridge(name string) *netsim.Bridge { return t.bridges[name] }
func (t *testTopo) Links() map[string]*netsim.Link    { return t.links }

func newTopo(t *testing.T) *testTopo {
	t.Helper()
	tt := &testTopo{
		sched:   sim.NewScheduler(),
		streams: sim.NewStreams(5),
		links:   map[string]*netsim.Link{},
		bridges: map[string]*netsim.Bridge{},
		nics:    map[string]*netsim.NIC{},
	}
	phc := func(name string) *clock.PHC {
		osc := clock.NewOscillator(clock.OscillatorConfig{}, tt.streams.Stream("osc/"+name), tt.sched.Now())
		return clock.NewPHC(tt.sched, osc, nil, clock.PHCConfig{})
	}
	mkBridge := func(name string) *netsim.Bridge {
		b := netsim.NewBridge(name, tt.sched, tt.streams.Stream("br/"+name), phc(name),
			netsim.BridgeConfig{Ports: 2, Residence: map[int]netsim.ResidenceModel{
				netsim.PriorityBestEffort: {Base: time.Microsecond},
			}})
		tt.bridges[name] = b
		return b
	}
	sw1, sw2 := mkBridge("sw1"), mkBridge("sw2")
	n1 := netsim.NewNIC("n1", tt.sched, phc("n1"))
	n2 := netsim.NewNIC("n2", tt.sched, phc("n2"))
	tt.nics["n1"], tt.nics["n2"] = n1, n2
	lc := netsim.LinkConfig{Propagation: 500 * time.Nanosecond}
	connect := func(name string, a, b *netsim.Port) {
		l, err := netsim.Connect(tt.sched, tt.streams.Stream("link/"+name), lc, a, b)
		if err != nil {
			t.Fatalf("connect %s: %v", name, err)
		}
		tt.links[name] = l
	}
	connect("n1", n1.Port(), sw1.Port(0))
	connect("sw1-sw2", sw1.Port(1), sw2.Port(0))
	connect("n2", n2.Port(), sw2.Port(1))
	sw1.AddRoute("nic/n2", 1)
	sw2.AddRoute("nic/n2", 1)
	sw2.AddRoute("nic/n1", 0)
	sw1.AddRoute("nic/n1", 0)
	return tt
}

func mustEngine(t *testing.T, tt *testTopo, p *Plan) *Engine {
	t.Helper()
	e, err := New(tt.sched, tt, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return e
}

// roundTripPlan exercises string durations, periodic triggers and a
// partition; FuzzParsePlan seeds from it too.
const roundTripPlan = `{
		"name": "smoke",
		"actions": [
			{"op": "link-down", "links": ["sw1-sw2"], "at": "1s", "duration": "500ms"},
			{"op": "burst-loss", "links": ["n1"], "every": "10s", "duration": "2s",
			 "bad_loss": 0.8, "good_to_bad": 0.05, "bad_to_good": 0.2},
			{"op": "partition", "groups": [["sw1", "n1"], ["sw2", "n2"]], "at": "30s", "duration": "5s"}
		]
	}`

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse([]byte(roundTripPlan))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Name != "smoke" || len(p.Actions) != 3 {
		t.Fatalf("parsed %q with %d actions", p.Name, len(p.Actions))
	}
	if p.Actions[0].At.Std() != time.Second || p.Actions[0].Duration.Std() != 500*time.Millisecond {
		t.Fatalf("duration strings misparsed: %+v", p.Actions[0])
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"actions": [{"op": "link-down", "links": ["x"], "at": "1s", "typo": 1}]}`))
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	_, err := Parse([]byte(`{"actions":[{"op":"link-down","links":["sw1-sw2"],"at":"1s"}]} {"bogus":1}`))
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing JSON value accepted: %v", err)
	}
}

func TestParseRejectsOutOfRangeDuration(t *testing.T) {
	for _, at := range []string{"1e300", "-1e300", "9.3e18"} {
		_, err := Parse([]byte(`{"actions":[{"op":"link-down","links":["x"],"at":` + at + `}]}`))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("at=%s: err = %v, want out of range", at, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		a    Action
		want string
	}{
		{"unknown op", Action{Op: "nuke", At: 1}, "unknown op"},
		// A fault ends only by its own duration: no op ends another's.
		{"link-up", Action{Op: "link-up", Links: []string{"x"}, At: 1}, "unknown op"},
		{"bridge-restore", Action{Op: "bridge-restore", Bridges: []string{"x"}, At: 1}, "unknown op"},
		{"heal", Action{Op: "heal", At: 1}, "unknown op"},
		{"site-restore", Action{Op: "site-restore", Sites: []int{0}, At: 1}, "unknown op"},
		{"wan-heal", Action{Op: "wan-heal", At: 1}, "unknown op"},
		{"no trigger", Action{Op: OpLinkDown, Links: []string{"x"}}, "trigger"},
		{"both triggers", Action{Op: OpLinkDown, Links: []string{"x"}, At: 1, Every: 1}, "mutually exclusive"},
		{"no links", Action{Op: OpLinkDown, At: 1}, "no target links"},
		{"no bridges", Action{Op: OpBridgeFail, At: 1}, "no target bridges"},
		{"one group", Action{Op: OpPartition, Groups: [][]string{{"a"}}, At: 1}, "at least 2"},
		{"dup device", Action{Op: OpPartition, Groups: [][]string{{"a"}, {"a"}}, At: 1}, "more than one group"},
		{"negative", Action{Op: OpLinkDown, Links: []string{"x"}, At: -1}, "negative"},
		{"nan rate", Action{Op: OpBurstLoss, Links: []string{"x"}, At: 1, BadLoss: math.NaN()}, "outside [0, 1]"},
		{"rate above 1", Action{Op: OpBurstLoss, Links: []string{"x"}, At: 1, BadLoss: 1.5}, "outside [0, 1]"},
		{"zero-rate burst", Action{Op: OpBurstLoss, Links: []string{"x"}, At: 1}, "no-op"},
		{"overlapping period", Action{Op: OpLinkDown, Links: []string{"x"}, Every: 10, Duration: 10}, "shorter than period"},
		{"no delay", Action{Op: OpDelaySpike, Links: []string{"x"}, At: 1}, "no delay"},
	}
	for _, c := range cases {
		p := &Plan{Actions: []Action{c.a}}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestNewRejectsUnknownNames(t *testing.T) {
	tt := newTopo(t)
	for _, p := range []*Plan{
		{Actions: []Action{{Op: OpLinkDown, Links: []string{"sw9-sw9"}, At: 1}}},
		{Actions: []Action{{Op: OpBridgeFail, Bridges: []string{"sw9"}, At: 1}}},
		{Actions: []Action{{Op: OpPartition, Groups: [][]string{{"sw1"}, {"ghost"}}, At: 1}}},
	} {
		if _, err := New(tt.sched, tt, p); err == nil {
			t.Errorf("unknown name accepted: %+v", p.Actions[0])
		}
	}
}

func TestLinkDownActionSelfReverts(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op: OpLinkDown, Links: []string{"sw1-sw2"},
		At: Duration(time.Second), Duration: Duration(2 * time.Second),
	}}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	l := tt.links["sw1-sw2"]
	if err := tt.sched.RunUntil(sim.Time(1500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !l.Down() {
		t.Fatal("link not down at t=1.5s")
	}
	if err := tt.sched.RunUntil(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Fatal("link still down after revert")
	}
}

func TestPeriodicBurstLoss(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op: OpBurstLoss, Links: []string{"n1"},
		Every: Duration(10 * time.Second), Duration: Duration(2 * time.Second),
		BadLoss: 0.9, GoodToBad: 0.1, BadToGood: 0.1,
	}}}
	e := mustEngine(t, tt, p)
	fired := 0
	e.SetActionObserver(func(a Action) {
		if a.Op != OpBurstLoss {
			t.Errorf("observer saw %q", a.Op)
		}
		fired++
	})
	if err := tt.sched.RunUntil(sim.Time(35 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("periodic action fired %d times in 35 s (period 10 s), want 3", fired)
	}
	e.Stop()
	if err := tt.sched.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("action fired after Stop: %d", fired)
	}
}

func TestPartitionCutsOnlyCrossGroupLinks(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{
		{Op: OpPartition, Groups: [][]string{{"sw1", "n1"}, {"sw2", "n2"}},
			At: Duration(time.Second), Duration: Duration(4 * time.Second)},
	}}
	mustEngine(t, tt, p)
	if err := tt.sched.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !tt.links["sw1-sw2"].Down() {
		t.Fatal("cross-group link survived the partition")
	}
	if tt.links["n1"].Down() || tt.links["n2"].Down() {
		t.Fatal("intra-group link was cut")
	}
	if err := tt.sched.RunUntil(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if tt.links["sw1-sw2"].Down() {
		t.Fatal("the partition's revert did not restore the cut link")
	}
}

func TestBridgeFailAction(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op: OpBridgeFail, Bridges: []string{"sw1"},
		At: Duration(time.Second), Duration: Duration(time.Second),
	}}}
	mustEngine(t, tt, p)
	if err := tt.sched.RunUntil(sim.Time(1500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !tt.bridges["sw1"].Failed() {
		t.Fatal("bridge not failed")
	}
	if err := tt.sched.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if tt.bridges["sw1"].Failed() {
		t.Fatal("bridge not restored")
	}
}

func TestAsymShiftAction(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op: OpAsymShift, Links: []string{"sw1-sw2"},
		At: Duration(time.Second), Duration: Duration(time.Second),
		Extra: Duration(time.Microsecond), Asym: Duration(2 * time.Microsecond),
	}}}
	mustEngine(t, tt, p)
	// One frame during the shift, one after.
	var during, after sim.Time
	tt.sched.At(sim.Time(1200*time.Millisecond), func() {
		_, _ = tt.nics["n1"].Send(&netsim.Frame{Src: "nic/n1", Dst: "nic/n2"})
	})
	tt.sched.At(sim.Time(3*time.Second), func() {
		_, _ = tt.nics["n1"].Send(&netsim.Frame{Src: "nic/n1", Dst: "nic/n2"})
	})
	tt.nics["n2"].SetHandler(func(f *netsim.Frame, _ float64) {
		if tt.sched.Now() < sim.Time(2*time.Second) {
			during = tt.sched.Now()
		} else {
			after = tt.sched.Now()
		}
	})
	if err := tt.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if during == 0 || after == 0 {
		t.Fatal("frames not delivered")
	}
	lDuring := during - sim.Time(1200*time.Millisecond)
	lAfter := after - sim.Time(3*time.Second)
	if lDuring-lAfter != sim.Time(3*time.Microsecond) {
		t.Fatalf("asym shift added %v, want 3µs (extra+asym)", lDuring-lAfter)
	}
}

func TestEngineCountsActions(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op: OpLinkDown, Links: []string{"n1"},
		At: Duration(time.Second), Duration: Duration(time.Second),
	}}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	if err := tt.sched.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var actions, reverts float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "chaos_actions":
			actions += m.Value
		case "chaos_reverts":
			reverts += m.Value
		}
	}
	if actions != 1 || reverts != 1 {
		t.Fatalf("actions=%v reverts=%v, want 1/1", actions, reverts)
	}
}
