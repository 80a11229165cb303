package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gptpfta/internal/faultinject"
	"gptpfta/internal/hypervisor"
	"gptpfta/internal/measure"
	"gptpfta/internal/ptp4l"
)

func buildAndStart(t *testing.T, seed int64, mod func(*Config)) *System {
	t.Helper()
	cfg := NewConfig(seed)
	if mod != nil {
		mod(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return sys
}

func runFor(t *testing.T, sys *System, d time.Duration) {
	t.Helper()
	if err := sys.RunFor(d); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestSystemConvergesAndMeasures(t *testing.T) {
	sys := buildAndStart(t, 101, nil)
	runFor(t, sys, 2*time.Minute)
	if !sys.AllInFTOperation() {
		for name, vm := range sys.vms {
			t.Logf("%s mode=%v", name, vm.Stack.Mode())
		}
		t.Fatal("not all stacks in FT operation after 2 min")
	}
	runFor(t, sys, 3*time.Minute)

	samples := sys.Collector().Samples()
	if len(samples) < 200 {
		t.Fatalf("samples = %d, want ~300 over 5 min", len(samples))
	}
	// Steady-state measured precision: drop the first 2 min of start-up.
	var steady []measure.Sample
	for _, s := range samples {
		if s.AtSec > 150 {
			steady = append(steady, s)
		}
	}
	st := measure.ComputeStats(steady)
	if st.MeanNS > 1500 {
		t.Fatalf("steady-state mean Π* = %.0f ns, want sub-µs-ish: %s", st.MeanNS, st)
	}
	bound, ok := sys.PrecisionBound()
	if !ok {
		t.Fatal("no precision bound measured")
	}
	gamma := sys.Collector().Gamma()
	if v := measure.ViolationCount(steady, float64(bound+gamma)/1); v != 0 {
		t.Fatalf("%d precision samples violate Π+γ=%v in fault-free steady state (%s)", v, bound+gamma, st)
	}
	// True (omniscient) precision agrees with the measured order.
	tp, ok := sys.TruePrecision()
	if !ok {
		t.Fatal("no true precision")
	}
	if tp > float64(bound) {
		t.Fatalf("true precision %v ns exceeds bound %v", tp, bound)
	}
}

func TestSystemBoundsMethodology(t *testing.T) {
	sys := buildAndStart(t, 102, nil)
	runFor(t, sys, 3*time.Minute)
	e, ok := sys.ReadingError()
	if !ok {
		t.Fatal("no reading error observed")
	}
	// The calibration targets the paper's ballpark: E of a few µs.
	if e < 500*time.Nanosecond || e > 20*time.Microsecond {
		t.Fatalf("reading error E = %v, outside plausible calibration", e)
	}
	if g := sys.DriftOffset(); g != 1250*time.Nanosecond {
		t.Fatalf("Γ = %v, want 1.25 µs (2·5ppm·125ms)", g)
	}
	bound, _ := sys.PrecisionBound()
	if bound != 2*(e+1250*time.Nanosecond) {
		t.Fatalf("Π = %v, want 2(E+Γ) with E=%v", bound, e)
	}
	gamma := sys.Collector().Gamma()
	if gamma <= 0 || gamma > e {
		t.Fatalf("γ = %v vs E = %v: measurement VLAN should be tighter than the Sync spread", gamma, e)
	}
	if sys.SyncLatencies().Paths() < 12 {
		t.Fatalf("only %d sync paths observed", sys.SyncLatencies().Paths())
	}
}

func TestSystemVMFailover(t *testing.T) {
	sys := buildAndStart(t, 103, nil)
	runFor(t, sys, 2*time.Minute)
	// Fail the active clock-synchronization VM of dev3 (its GM).
	if err := sys.Node(2).FailVM(0); err != nil {
		t.Fatalf("fail: %v", err)
	}
	runFor(t, sys, 2*time.Second)
	if sys.Node(2).STSHMEM().Active() != 1 {
		t.Fatal("no takeover to the redundant VM")
	}
	// The node keeps serving a CLOCK_SYNCTIME close to the others.
	runFor(t, sys, 30*time.Second)
	tp, ok := sys.TruePrecision()
	if !ok {
		t.Fatal("no true precision")
	}
	bound, _ := sys.PrecisionBound()
	if tp > float64(bound) {
		t.Fatalf("precision %v ns beyond bound %v after takeover", tp, bound)
	}
	if n := sys.EventLog().CountsByKind()[hypervisor.EventTakeover]; n != 1 {
		t.Fatalf("takeover events = %d, want 1", n)
	}
	// Reboot restores redundancy.
	if err := sys.Node(2).RebootVM(0); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	runFor(t, sys, 2*time.Minute)
	if sys.Node(2).HealthyVMs() != 2 {
		t.Fatal("redundancy not restored after reboot")
	}
	vm, _ := sys.VM("c31")
	if vm.Stack.Mode() != ptp4l.ModeFTOperation {
		t.Fatalf("rebooted GM stack in %v", vm.Stack.Mode())
	}
}

// startInjector attaches a started fault injector to every node of sys.
func startInjector(t *testing.T, sys *System, cfg faultinject.Config) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.New(sys.Scheduler(), sys.Streams().Stream("inject"), sys.NodeControls(), cfg)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	if err := inj.Start(); err != nil {
		t.Fatalf("injector start: %v", err)
	}
	return inj
}

func TestSystemWithFaultInjector(t *testing.T) {
	sys := buildAndStart(t, 104, nil)
	inj := startInjector(t, sys, faultinject.Config{
		GMPeriod:            4 * time.Minute,
		RedundantMinPerHour: 20,
		RedundantMaxPerHour: 30,
		Downtime:            30 * time.Second,
		Start:               2 * time.Minute,
	})
	runFor(t, sys, 20*time.Minute)
	inj.Stop()

	stats := inj.Stats()
	if stats.GMFailures < 3 {
		t.Fatalf("GM failures = %d, want several in 20 min", stats.GMFailures)
	}
	if stats.TotalFailures == 0 || stats.Reboots == 0 {
		t.Fatalf("injector stats: %+v", stats)
	}
	// The measured precision stays within Π+γ despite the faults.
	bound, ok := sys.PrecisionBound()
	if !ok {
		t.Fatal("no bound")
	}
	gamma := sys.Collector().Gamma()
	var steady []measure.Sample
	for _, s := range sys.Collector().Samples() {
		if s.AtSec > 150 {
			steady = append(steady, s)
		}
	}
	if len(steady) < 500 {
		t.Fatalf("steady samples = %d", len(steady))
	}
	viol := measure.ViolationCount(steady, float64(bound+gamma))
	if viol > len(steady)/100 {
		st := measure.ComputeStats(steady)
		t.Fatalf("%d/%d samples violate Π+γ=%v under fault injection (%s)",
			viol, len(steady), bound+gamma, st)
	}
	if sys.EventLog().Len() == 0 {
		t.Fatal("no events logged")
	}
}

func TestSystemConfigValidation(t *testing.T) {
	cfg := NewConfig(1)
	cfg.Nodes = 1
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("1-node system accepted")
	}
	cfg = NewConfig(1)
	cfg.MeasurementNode = 9
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("out-of-range measurement node accepted")
	}
	cfg = NewConfig(1)
	cfg.VMsPerNode = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("0 VMs per node accepted")
	}
	// Node i hosts domain i's grandmaster. The count must be refused
	// before any per-domain state is sized by it, not by a later check.
	cfg = NewConfig(1)
	cfg.DomainCount = cfg.Nodes + 1
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "grandmaster") {
		t.Fatalf("a domain without a grandmaster node: err %v, want one naming the grandmaster", err)
	}
}

// TestScaleTopologyRuns sanity-checks the generated fabric itself: the
// fabric-wide measurement VLAN returns replies across the gateway chain.
func TestScaleTopologyRuns(t *testing.T) {
	cfg := ScaleConfig(5, 2, 3, 2)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	samples := sys.Collector().Samples()
	if len(samples) == 0 {
		t.Fatal("collector gathered no samples")
	}
	// Agents on the remote site are reachable through the gateway chain.
	want := cfg.TotalNodes()*cfg.VMsPerNode - 2 // minus collector and excluded GM
	if got := samples[len(samples)-1].Replies; got != want {
		t.Errorf("probe replies = %d, want %d (remote site unreachable?)", got, want)
	}
	sys.Stop()
}

// TestSystemCloseIdempotent pins the lifecycle bench/ relies on: Close is
// a repeatable no-op, the system keeps simulating after it, and Stop after
// Close is safe.
func TestSystemCloseIdempotent(t *testing.T) {
	sys := buildAndStart(t, 7, nil)
	runFor(t, sys, 500*time.Millisecond)
	sys.Close()
	sys.Close()
	before := sys.ProcessedEvents()
	runFor(t, sys, 500*time.Millisecond)
	if sys.ProcessedEvents() == before {
		t.Fatal("no events after Close")
	}
	if sys.Fabric() != nil {
		t.Fatal("Fabric() is not nil")
	}
	sys.Stop()
}

// TestConcurrentSystemsShareNoFreeList runs three distinct systems (two
// paper meshes and a three-site fabric) on three goroutines at two Ps and
// requires each to reproduce the run it makes alone. Under -race (make
// verify) it shows that no free list, pool counter or other message-path
// state is shared between systems.
func TestConcurrentSystemsShareNoFreeList(t *testing.T) {
	if testing.Short() {
		t.Skip("three concurrent systems")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const d = 1200 * time.Millisecond
	cfgs := []Config{NewConfig(41), NewConfig(42), ScaleConfig(7, 3, 3, 2)}
	want := make([]runFingerprint, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = fingerprint(t, cfg, d)
	}
	got := make([]runFingerprint, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runPrint(cfg, d, nil)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		requireSameFingerprint(t, fmt.Sprintf("concurrent system %d", i), want[i], got[i])
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() (float64, int) {
		sys := buildAndStart(t, 777, nil)
		runFor(t, sys, 90*time.Second)
		st := measure.ComputeStats(sys.Collector().Samples())
		return st.MeanNS, sys.EventLog().Len()
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 || e1 != e2 {
		t.Fatalf("same seed diverged: mean %v vs %v, events %d vs %d", m1, m2, e1, e2)
	}
}

func TestVMNameAndNodeName(t *testing.T) {
	if VMName(0, 0) != "c11" || VMName(3, 1) != "c42" {
		t.Fatalf("VM names wrong: %s %s", VMName(0, 0), VMName(3, 1))
	}
	if NodeName(1) != "dev2" {
		t.Fatalf("node name wrong: %s", NodeName(1))
	}
}

func TestDiversifyKernels(t *testing.T) {
	cfg := NewConfig(1)
	cfg.DiversifyKernels("c41")
	if cfg.KernelFor("c41") != "v4.19.1" {
		t.Fatalf("c41 kernel = %s, want the vulnerable one", cfg.KernelFor("c41"))
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		k := cfg.KernelFor(VMName(i, 0))
		if seen[k] {
			t.Fatalf("kernel %s reused across GMs", k)
		}
		seen[k] = true
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog()
	l.add(Event{At: 1, Kind: "a"})
	l.add(Event{At: 2, Kind: "b", Detail: "x"})
	l.add(Event{At: 3, Kind: "a"})
	if l.Len() != 3 {
		t.Fatal("len wrong")
	}
	if len(l.Window(2, 3)) != 2 {
		t.Fatal("window wrong")
	}
	if l.CountsByKind()["a"] != 2 {
		t.Fatal("counts wrong")
	}
	if l.CountsByKindAndDetail()["b/x"] != 1 {
		t.Fatal("detail counts wrong")
	}
	if k := l.CountsByKind(); len(k) != 2 {
		t.Fatalf("kinds wrong: %v", k)
	}
	if l.Events()[0].String() == "" {
		t.Fatal("string empty")
	}
}

func TestTruePrecisionFiniteAndPositive(t *testing.T) {
	sys := buildAndStart(t, 105, nil)
	runFor(t, sys, 2*time.Minute)
	tp, ok := sys.TruePrecision()
	if !ok || math.IsNaN(tp) || tp < 0 {
		t.Fatalf("true precision %v/%v", tp, ok)
	}
}

func TestSystemToleratesFrameLoss(t *testing.T) {
	sys := buildAndStart(t, 106, func(c *Config) {
		c.LinkLossProb = 0.01 // 1% loss on every link
	})
	runFor(t, sys, 4*time.Minute)
	if !sys.AllInFTOperation() {
		t.Fatal("system did not converge under 1% frame loss")
	}
	bound, ok := sys.PrecisionBound()
	if !ok {
		t.Fatal("no bound")
	}
	gamma := sys.Collector().Gamma()
	var steady []measure.Sample
	for _, s := range sys.Collector().Samples() {
		if s.AtSec > 120 {
			steady = append(steady, s)
		}
	}
	if len(steady) < 50 {
		t.Fatalf("steady samples = %d (probes lost entirely?)", len(steady))
	}
	if v := measure.ViolationCount(steady, float64(bound+gamma)); v > len(steady)/50 {
		st := measure.ComputeStats(steady)
		t.Fatalf("%d/%d violations under frame loss: %s", v, len(steady), st)
	}
}

func TestSystemStop(t *testing.T) {
	sys := buildAndStart(t, 107, nil)
	runFor(t, sys, 30*time.Second)
	samples := len(sys.Collector().Samples())
	sys.Stop()
	// The queue drains to empty: every ticker stopped.
	if err := sys.Scheduler().Run(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(sys.Collector().Samples()); got > samples+1 {
		t.Fatalf("collector kept sampling after Stop: %d -> %d", samples, got)
	}
	if sys.Scheduler().Pending() != 0 {
		t.Fatalf("pending events after Stop+drain: %d", sys.Scheduler().Pending())
	}
	sys.Stop() // idempotent
	// Double start after stop is rejected (one-shot lifecycle).
	if err := sys.Start(); err != nil {
		t.Logf("restart after stop: %v (acceptable either way)", err)
	}
}

// TestSimultaneousCrossNodeFailures exercises the paper's note that "up to
// four clock synchronization VMs can fail simultaneously on separate
// nodes" — one VM per node at once is within the fault hypothesis.
func TestSimultaneousCrossNodeFailures(t *testing.T) {
	sys := buildAndStart(t, 108, nil)
	runFor(t, sys, 2*time.Minute)
	// Fail the GM on dev1/dev3 and the redundant VM on dev2/dev4 — four
	// simultaneous fail-silent VMs, all on distinct nodes.
	for _, f := range []struct{ node, vm int }{{0, 0}, {1, 1}, {2, 0}, {3, 1}} {
		if err := sys.Node(f.node).FailVM(f.vm); err != nil {
			t.Fatalf("fail dev%d vm%d: %v", f.node+1, f.vm+1, err)
		}
	}
	runFor(t, sys, time.Minute)
	// Every node still serves CLOCK_SYNCTIME and the ensemble stays
	// within the bound.
	bound, _ := sys.PrecisionBound()
	tp, ok := sys.TruePrecision()
	if !ok {
		t.Fatal("a node lost CLOCK_SYNCTIME")
	}
	if tp > float64(bound) {
		t.Fatalf("precision %v ns beyond bound %v with 4 cross-node failures", tp, bound)
	}
	// Reboot everyone; redundancy recovers.
	for _, f := range []struct{ node, vm int }{{0, 0}, {1, 1}, {2, 0}, {3, 1}} {
		if err := sys.Node(f.node).RebootVM(f.vm); err != nil {
			t.Fatalf("reboot: %v", err)
		}
	}
	runFor(t, sys, 2*time.Minute)
	for i, n := range sys.Nodes() {
		if n.HealthyVMs() != 2 {
			t.Fatalf("dev%d healthy VMs = %d after reboots", i+1, n.HealthyVMs())
		}
	}
}

// TestMeasurementVMFailure: when the measurement VM itself fails, the
// series pauses and resumes after reboot — the instrumentation is not a
// single point of failure for the system itself.
func TestMeasurementVMFailure(t *testing.T) {
	sys := buildAndStart(t, 109, nil)
	runFor(t, sys, 90*time.Second)
	before := len(sys.Collector().Samples())
	if err := sys.Node(1).FailVM(1); err != nil { // c22, the measurement VM
		t.Fatal(err)
	}
	runFor(t, sys, 30*time.Second)
	during := len(sys.Collector().Samples())
	if during > before+2 {
		t.Fatalf("samples advanced (%d -> %d) while the measurement VM was down", before, during)
	}
	// The system itself is unaffected: true precision stays bounded.
	bound, _ := sys.PrecisionBound()
	if tp, ok := sys.TruePrecision(); !ok || tp > float64(bound) {
		t.Fatalf("system degraded by losing its probe VM: %v/%v", tp, ok)
	}
	if err := sys.Node(1).RebootVM(1); err != nil {
		t.Fatal(err)
	}
	runFor(t, sys, time.Minute)
	after := len(sys.Collector().Samples())
	if after <= during {
		t.Fatal("measurement did not resume after reboot")
	}
}

// TestGMAndRedundantStaggeredFailures: the GM fails, the redundant VM
// takes over, the GM reboots, then the redundant VM fails — the node must
// hand CLOCK_SYNCTIME back without losing the bound.
func TestGMAndRedundantStaggeredFailures(t *testing.T) {
	sys := buildAndStart(t, 110, nil)
	runFor(t, sys, 2*time.Minute)
	node := sys.Node(3) // dev4
	if err := node.FailVM(0); err != nil {
		t.Fatal(err)
	}
	runFor(t, sys, 45*time.Second)
	if err := node.RebootVM(0); err != nil {
		t.Fatal(err)
	}
	runFor(t, sys, 2*time.Minute) // c41 resynchronizes
	if err := node.FailVM(1); err != nil {
		t.Fatal(err)
	}
	runFor(t, sys, 30*time.Second)
	if node.STSHMEM().Active() != 0 {
		t.Fatal("CLOCK_SYNCTIME not handed back to the rebooted GM VM")
	}
	bound, _ := sys.PrecisionBound()
	if tp, ok := sys.TruePrecision(); !ok || tp > float64(bound) {
		t.Fatalf("bound lost across the staggered failover chain: %v", tp)
	}
}

func TestEventLogWriteCSV(t *testing.T) {
	l := NewEventLog()
	l.add(Event{At: 125000000, Node: "dev1", VM: "c11", Kind: "vm_failed"})
	l.add(Event{At: 250000000, Node: "dev1", VM: "c12", Kind: "takeover", Detail: "replacing c11"})
	var b strings.Builder
	if err := l.WriteCSV(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{"at_ns,node,vm,kind,detail", "125000000,dev1,c11,vm_failed,", "replacing c11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestSystemMetricsSnapshot(t *testing.T) {
	sys := buildAndStart(t, 103, nil)
	runFor(t, sys, 30*time.Second)

	byName := map[string]int{}
	var offsetObservations uint64
	for _, m := range sys.Metrics().Snapshot() {
		byName[m.Name]++
		if m.Name == "ptp4l_offset_ns" && m.Histogram != nil {
			offsetObservations += m.Histogram.Count
		}
	}
	// One offset histogram per (VM, domain), one FTA counter per VM, one
	// detection counter per node; kernel and netsim gauges are singletons.
	cfg := sys.Config()
	vms := cfg.Nodes * cfg.VMsPerNode
	for name, want := range map[string]int{
		"ptp4l_offset_ns":               vms * cfg.NumDomains(),
		"ptp4l_fta_aggregations":        vms,
		"hypervisor_monitor_detections": cfg.Nodes,
		"sim_events_processed":          1,
		"netsim_frames_forwarded":       1,
		"netsim_frames_sent":            1,
	} {
		if byName[name] != want {
			t.Errorf("%s: %d series, want %d", name, byName[name], want)
		}
	}
	if offsetObservations == 0 {
		t.Error("no offset samples observed after 30 s of sync traffic")
	}
	// GaugeFunc values must reflect the live kernel counters.
	for _, m := range sys.Metrics().Snapshot() {
		if m.Name == "sim_events_processed" && m.Value <= 0 {
			t.Errorf("sim_events_processed = %v, want > 0", m.Value)
		}
		if m.Name == "netsim_frames_sent" && m.Value <= 0 {
			t.Errorf("netsim_frames_sent = %v, want > 0", m.Value)
		}
	}
}

// maxAllocsPerEvent bounds the steady-state heap allocations per processed
// event of the paper mesh. What is left is one Sync per domain and
// interval (a relay's egress copies share it), the measurement probe and
// its collect-window closure, and the amortised growth of result slices.
const maxAllocsPerEvent = 0.025

// TestSteadyStateAllocations guards the allocation-free message path:
// frames, FollowUps, pdelay messages and measurement replies come from
// per-scheduler free lists. It converges the paper mesh for a simulated
// minute and then counts the mallocs of the next one.
func TestSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulated minutes")
	}
	sys := buildAndStart(t, 1, nil)
	runFor(t, sys, time.Minute)
	var before, after runtime.MemStats
	events := sys.ProcessedEvents()
	runtime.ReadMemStats(&before)
	runFor(t, sys, time.Minute)
	runtime.ReadMemStats(&after)
	events = sys.ProcessedEvents() - events
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d mallocs over %d events: %.4f per event", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Fatalf("%.4f mallocs per event in steady state, bound %v", perEvent, maxAllocsPerEvent)
	}
}
