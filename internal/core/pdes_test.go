package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/chaos"
	"gptpfta/internal/faultinject"
	"gptpfta/internal/sim"
)

// runFingerprint runs a system for d and reduces everything downstream
// experiments consume to a comparable value: the exact measurement sample
// series, the event log as a sorted multiset, the Sync latency extrema and
// the kernel traffic counters. Shard-count equivalence means these are
// bit-identical, because every derived experiment row is a pure function of
// them.
type runFingerprint struct {
	samples  any
	events   []string
	minNS    int64
	maxNS    int64
	haveLat  bool
	precOK   bool
	precNS   float64
	ftaReady bool
	frames   uint64
	wan      string // the WAN coordinator's samples, printed: failed sites read NaN
}

func fingerprint(t *testing.T, cfg Config, d time.Duration) runFingerprint {
	t.Helper()
	return fingerprintTweak(t, cfg, d, nil)
}

// fingerprintTweak is fingerprint with a hook between Start and RunFor,
// for tests that flip fabric knobs (ForceParallel) on an otherwise
// identical run.
func fingerprintTweak(t *testing.T, cfg Config, d time.Duration, tweak func(*System)) runFingerprint {
	t.Helper()
	fp, err := runPrint(cfg, d, tweak)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// runPrint builds, starts and runs a system and takes its fingerprint;
// unlike fingerprint it may be called from any goroutine.
func runPrint(cfg Config, d time.Duration, tweak func(*System)) (runFingerprint, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return runFingerprint{}, fmt.Errorf("NewSystem: %w", err)
	}
	if err := sys.Start(); err != nil {
		return runFingerprint{}, fmt.Errorf("Start: %w", err)
	}
	if tweak != nil {
		tweak(sys)
	}
	if err := sys.RunFor(d); err != nil {
		return runFingerprint{}, fmt.Errorf("RunFor: %w", err)
	}
	fp := runFingerprint{samples: sys.Collector().Samples()}
	for _, e := range sys.EventLog().Events() {
		fp.events = append(fp.events, e.String())
	}
	sort.Strings(fp.events)
	min, max, ok := sys.SyncLatencies().Extrema()
	fp.minNS, fp.maxNS, fp.haveLat = int64(min), int64(max), ok
	fp.precNS, fp.precOK = sys.TruePrecision()
	fp.ftaReady = sys.AllInFTOperation()
	fp.frames = framesTotal(sys)
	if co := sys.Wan(); co != nil {
		fp.wan = fmt.Sprint(co.Samples())
	}
	sys.Stop()
	return fp, nil
}

func framesTotal(sys *System) uint64 {
	var n uint64
	for _, l := range sys.links {
		n += l.Sent() + l.Lost()
	}
	for _, b := range sys.bridges {
		n += b.Forwarded() + b.Dropped()
	}
	return n
}

func requireSameFingerprint(t *testing.T, label string, want, got runFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(want.samples, got.samples) {
		t.Errorf("%s: measurement samples diverge", label)
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Errorf("%s: event logs diverge (%d vs %d events)", label, len(want.events), len(got.events))
		for i := range want.events {
			if i < len(got.events) && want.events[i] != got.events[i] {
				t.Errorf("%s: first difference:\n  want %s\n  got  %s", label, want.events[i], got.events[i])
				break
			}
		}
	}
	if want.minNS != got.minNS || want.maxNS != got.maxNS || want.haveLat != got.haveLat {
		t.Errorf("%s: latency extrema diverge: want [%d %d %v], got [%d %d %v]",
			label, want.minNS, want.maxNS, want.haveLat, got.minNS, got.maxNS, got.haveLat)
	}
	if want.precOK != got.precOK || want.precNS != got.precNS {
		t.Errorf("%s: true precision diverges: want %v/%v, got %v/%v",
			label, want.precNS, want.precOK, got.precNS, got.precOK)
	}
	if want.ftaReady != got.ftaReady {
		t.Errorf("%s: FT-operation state diverges", label)
	}
	if want.frames != got.frames {
		t.Errorf("%s: frame counters diverge: want %d, got %d", label, want.frames, got.frames)
	}
	if want.wan != got.wan {
		t.Errorf("%s: WAN coordinator samples diverge", label)
	}
}

// TestShardEquivalencePaper proves the determinism contract on the paper
// topology: every shard count reproduces the single-scheduler run
// bit-for-bit, even though in-site shard cuts shrink the lookahead to the
// 500 ns link propagation.
func TestShardEquivalencePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard sweep")
	}
	const d = 2 * time.Second
	for _, seed := range []int64{31, 32, 33, 34, 35} {
		ref := fingerprint(t, NewConfig(seed), d)
		if !ref.haveLat {
			t.Fatal("reference run observed no Sync latencies")
		}
		for _, shards := range []int{2, 4, 8} {
			cfg := NewConfig(seed)
			cfg.Shards = shards
			requireSameFingerprint(t, fmt.Sprintf("seed=%d shards=%d", seed, shards),
				ref, fingerprint(t, cfg, d))
		}
	}
}

// TestShardEquivalencePaperLong is the regression anchor for same-key tie
// ordering at barriers. Cross-shard sends whose delivery keys collide must
// commit in the exact order a single scheduler would have inserted them,
// which takes both extra sort keys:
//
//   - Key3 (the sending event's own cause): two key-tied sends from
//     different shards are ordered the way their senders' heap keys would
//     have interleaved. Without it, seed 11 first diverges around t≈83 s.
//   - Ord (the source shard's issuance ordinal): key-tied sends leaving
//     one shard through different boundary links keep issuance order, not
//     boundary registration order. Without it, seed 1 first diverges
//     around t≈494 s.
//
// Both symptoms start as sub-ns probe-sample shifts that later grow into
// ns-shifted events, so the duration must stay well past 500 s.
func TestShardEquivalencePaperLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long multi-shard run")
	}
	const d = 600 * time.Second
	for _, seed := range []int64{1, 11} {
		ref := fingerprint(t, NewConfig(seed), d)
		cfg := NewConfig(seed)
		cfg.Shards = 4
		requireSameFingerprint(t, fmt.Sprintf("long seed=%d shards=4", seed),
			ref, fingerprint(t, cfg, d))
	}
}

// TestShardEquivalenceScale proves the contract on a generated multi-site
// fabric, where shard boundaries align with the metro-latency gateway links
// and cross-shard measurement traffic exercises the mailbox path.
func TestShardEquivalenceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard sweep")
	}
	const d = 1200 * time.Millisecond
	ref := fingerprint(t, ScaleConfig(7, 3, 3, 2, 1), d)
	if len(ref.events) == 0 {
		t.Fatal("reference scale run produced no events")
	}
	for _, shards := range []int{2, 3, 6} {
		requireSameFingerprint(t, fmt.Sprintf("shards=%d", shards), ref,
			fingerprint(t, ScaleConfig(7, 3, 3, 2, shards), d))
	}
}

// TestScaleTopologyRuns sanity-checks the generated fabric itself: the
// fabric-wide measurement VLAN returns replies across the gateway chain and
// the PDES machinery actually exercises its mailbox path.
func TestScaleTopologyRuns(t *testing.T) {
	cfg := ScaleConfig(5, 2, 3, 2, 2)
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
	got := samples[len(samples)-1].Replies
	if got != want {
		t.Errorf("probe replies = %d, want %d (remote site unreachable?)", got, want)
	}
	if sys.Fabric() == nil {
		t.Fatal("sharded system has no fabric")
	}
	st := sys.Fabric().Stats()
	if st.Windows == 0 || st.Committed == 0 {
		t.Errorf("fabric idle: windows=%d committed=%d", st.Windows, st.Committed)
	}
	sys.Stop()
}

// TestShardEquivalenceForceParallel re-proves the determinism contract with
// the serial fast path disabled: every window with ≥1 busy shard goes
// through the worker barrier, on any core count. This is the
// test that keeps the worker path honest on single-core runners, where the
// GOMAXPROCS heuristic would otherwise hide it entirely.
func TestShardEquivalenceForceParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard sweep")
	}
	const d = 1200 * time.Millisecond
	ref := fingerprint(t, ScaleConfig(7, 3, 3, 2, 1), d)
	for _, shards := range []int{2, 6} {
		fp := fingerprintTweak(t, ScaleConfig(7, 3, 3, 2, shards), d, func(sys *System) {
			sys.Fabric().ForceParallel = true
		})
		requireSameFingerprint(t, fmt.Sprintf("forced-parallel shards=%d", shards), ref, fp)
	}
}

// TestShardEquivalenceInjected carries the contract to the scenarios the
// studies inject from the control scheduler: a fault-injection campaign, a
// Byzantine grandmaster compromise, an on-path Sync delay, a mesh partition
// and a WAN site failure. Each injection is armed between Start and RunFor,
// where the studies attach theirs, and every control-context action is
// logged at the instant it fires, so its timing is part of the fingerprint.
// The injectors use only the public control-context API (Scheduler, Now,
// LogEvent), which must mean the same at every shard count. The reference
// run must show the injection took effect.
func TestShardEquivalenceInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard sweep")
	}
	paper := func(seed int64) func(int) Config {
		return func(shards int) Config {
			cfg := NewConfig(seed)
			cfg.HoldoverWindow = 2 * time.Second
			cfg.Shards = shards
			return cfg
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    func(shards int) Config
		d      time.Duration
		inject func(t *testing.T, sys *System)
		want   string // an event kind the reference run must log
	}{
		// FailVM/RebootVM run on the control scheduler and re-arm the
		// rebooted stack's timers from its node's shard clock, which must
		// read exactly the control instant. The compressed GM period packs
		// several failure/reboot/takeover cycles into the run.
		{"faultinject", paper(11), 3 * time.Minute, injectFaults, "takeover"},
		// Two grandmasters are exploited at one control instant; the wander
		// behavior re-falsifies each every second from its own stream.
		{"byzantine", paper(5), 90 * time.Second, injectByzantine, "exploit"},
		{"sync-delay", paper(5), 90 * time.Second, injectSyncDelay, "delay_attack"},
		// A 30 s split outlasts the 2 s holdover window.
		{"partition", paper(2), 2 * time.Minute, func(t *testing.T, sys *System) {
			injectPlan(t, sys, &chaos.Plan{Name: "partition", Actions: []chaos.Action{{
				Op:       chaos.OpPartition,
				Groups:   [][]string{{"sw1", "sw2"}, {"sw3", "sw4"}},
				At:       chaos.Duration(time.Minute),
				Duration: chaos.Duration(30 * time.Second),
			}}})
		}, "holdover"},
		// Two of four sites fail while the first chain link's asymmetry
		// ramps to 10 µs; the coordinator's samples join the fingerprint.
		{"wan-site-fail", wanSiteFailConfig, time.Minute, func(t *testing.T, sys *System) {
			at := chaos.Duration(20 * time.Second)
			injectPlan(t, sys, &chaos.Plan{Name: "wan-site-fail", Actions: []chaos.Action{
				{Op: chaos.OpSiteFail, Sites: []int{2, 3}, At: at, Duration: chaos.Duration(15 * time.Second)},
				{Op: chaos.OpWanAsymDrift, Links: []string{sys.WanLinkName(0)}, At: at,
					Duration: chaos.Duration(5 * time.Second), Asym: chaos.Duration(10 * time.Microsecond)},
			}})
		}, "site-fail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inject := func(sys *System) { tc.inject(t, sys) }
			ref := fingerprintTweak(t, tc.cfg(1), tc.d, inject)
			if !containsKind(ref.events, tc.want) {
				t.Fatalf("reference run logged no %q event", tc.want)
			}
			for _, shards := range []int{2, 4, 8} {
				requireSameFingerprint(t, fmt.Sprintf("%s shards=%d", tc.name, shards),
					ref, fingerprintTweak(t, tc.cfg(shards), tc.d, inject))
			}
		})
	}
}

func containsKind(events []string, kind string) bool {
	for _, e := range events {
		if strings.Contains(e, " "+kind+" ") {
			return true
		}
	}
	return false
}

func injectFaults(t *testing.T, sys *System) {
	startInjector(t, sys, faultinject.Config{
		GMPeriod:            45 * time.Second,
		RedundantMinPerHour: 6,
		RedundantMaxPerHour: 12,
		Downtime:            15 * time.Second,
		Start:               45 * time.Second,
	})
}

func injectByzantine(t *testing.T, sys *System) {
	t.Helper()
	behavior := attack.Behavior{Kind: attack.BehaviorWander, OffsetNS: attack.MaliciousOriginOffsetNS, WanderNSPerStep: 2000}
	targets := attack.CampaignTargets(attack.DefaultTargetOrder(), 2)
	atk := attack.NewAttacker(attack.DefaultVulnDB(), attack.CVE201818955, targets...)
	sys.Scheduler().At(sim.Time(30*time.Second), func() {
		for _, target := range targets {
			vm, _ := sys.VM(target)
			adv := attack.NewAdversary(behavior, sys.Streams().Stream("attack/"+target))
			r := atk.Exploit(vm, adv.Offset(0))
			sys.LogEvent(Event{At: sys.Now(), VM: target, Kind: "exploit", Detail: r.String()})
			if !r.Success {
				t.Errorf("exploit of %s failed: %s", target, r)
				continue
			}
			start := sys.Now()
			if _, err := sys.Scheduler().Every(start.Add(time.Second), time.Second, func() {
				vm.InstallMaliciousPTP4L(adv.Offset(time.Duration(sys.Now() - start).Seconds()))
			}); err != nil {
				t.Error(err)
			}
		}
	})
}

// injectSyncDelay holds c31's outbound Sync frames (all domains) by 24 µs.
func injectSyncDelay(t *testing.T, sys *System) {
	t.Helper()
	link := sys.Link("c31")
	sys.Scheduler().At(sim.Time(30*time.Second), func() {
		link.SetDelayAttack(attack.SyncDelayAttack{DelayNS: 24000, Dir: 0, Domain: -1})
		sys.LogEvent(Event{At: sys.Now(), VM: "c31", Kind: "delay_attack"})
	})
}

// injectPlan starts a chaos engine that logs each action as it fires.
func injectPlan(t *testing.T, sys *System, plan *chaos.Plan) {
	t.Helper()
	eng, err := chaos.New(sys.Scheduler(), sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetActionObserver(func(a chaos.Action) {
		sys.LogEvent(Event{At: sys.Now(), Kind: a.Op})
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
}

// wanSiteFailConfig is the wansites study's fabric: four paper meshes with
// the WAN tier armed and its background drift off, so the chaos ramp is the
// only writer of the WAN delay axis.
func wanSiteFailConfig(shards int) Config {
	cfg := ScaleConfig(5, 4, 4, 2, shards)
	cfg.WanSync.Enabled = true
	cfg.WanSync.F = 2
	cfg.WanSync.HoldoverWindow = 2 * time.Second
	return cfg
}

// TestConcurrentSystemsShareNoFreeList runs two unsharded systems on two
// goroutines while a third, sharded one runs every window through the
// worker barrier, all at two Ps, and requires each to reproduce the run it
// makes alone (the sharded one its unsharded twin's). Under -race (make
// verify) it shows that no free list, pool counter or other message-path
// state is shared between systems or between the shards of one.
func TestConcurrentSystemsShareNoFreeList(t *testing.T) {
	if testing.Short() {
		t.Skip("three concurrent systems")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const d = 1200 * time.Millisecond
	cfgs := []Config{NewConfig(41), NewConfig(42), ScaleConfig(7, 3, 3, 2, 2)}
	want := []runFingerprint{
		fingerprint(t, cfgs[0], d),
		fingerprint(t, cfgs[1], d),
		fingerprint(t, ScaleConfig(7, 3, 3, 2, 1), d),
	}
	got := make([]runFingerprint, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		var tweak func(*System)
		if cfg.Shards > 1 {
			tweak = func(sys *System) { sys.Fabric().ForceParallel = true }
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			got[i], errs[i] = runPrint(cfg, d, tweak)
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		requireSameFingerprint(t, fmt.Sprintf("concurrent system %d", i), want[i], got[i])
	}
}

// TestFabricLookaheadInvalidation pins the cached-lookahead contract at
// the system level: the O(boundaries) rescan runs once per run plus once
// per delay mutation — not once per window — and a boundary-link override
// reported through the BindFabric hook lands in the effective lookahead.
func TestFabricLookaheadInvalidation(t *testing.T) {
	sys, err := NewSystem(ScaleConfig(7, 2, 3, 2, 2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sys.Stop()
	if err := sys.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	st := sys.Fabric().Stats()
	if st.Windows < 100 {
		t.Fatalf("only %d windows — topology too idle for this test", st.Windows)
	}
	if st.LookaheadRescans != 1 {
		t.Fatalf("LookaheadRescans = %d over %d windows, want 1 (cache never invalidated)",
			st.LookaheadRescans, st.Windows)
	}

	// Mutate one boundary link's delay override from driver context, as the
	// chaos engine would from a control callback.
	var mutated bool
	for _, l := range sys.Links() {
		if l.Boundary() {
			l.SetDelayOverride(0, -200*time.Nanosecond)
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("2-shard scale topology has no boundary link")
	}
	if err := sys.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	st = sys.Fabric().Stats()
	if st.LookaheadRescans != 2 {
		t.Fatalf("LookaheadRescans = %d after one mutation, want 2", st.LookaheadRescans)
	}
	want := int64(1 << 62)
	for _, l := range sys.Links() {
		if l.Boundary() {
			if d := int64(l.MinDelay()); d < want {
				want = d
			}
		}
	}
	if want < 1 {
		want = 1
	}
	if st.LookaheadNS != want {
		t.Fatalf("post-mutation LookaheadNS = %d, want current boundary minimum %d", st.LookaheadNS, want)
	}
}

// TestSystemCloseIdempotent pins the system-level lifecycle: Close is a
// repeatable no-op, the system keeps simulating after it, Stop after Close
// is safe, and an unsharded system tolerates Close too.
func TestSystemCloseIdempotent(t *testing.T) {
	sys, err := NewSystem(ScaleConfig(7, 2, 3, 2, 2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sys.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close()
	if err := sys.RunFor(500 * time.Millisecond); err != nil {
		t.Fatalf("RunFor after Close: %v", err)
	}
	if st := sys.Fabric().Stats(); st.Windows == 0 {
		t.Fatal("fabric ran no windows")
	}
	sys.Stop() // Stop after Close must also be safe

	unsharded, err := NewSystem(NewConfig(7))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	unsharded.Close()
}

// TestFabricSystemLeavesNoWorkers: a sharded System forced onto the worker
// barrier, run and then dropped without Stop or Close, leaves no goroutine
// behind — no GC round or finalizer needed, because the shard workers end
// with the RunFor call that started them.
func TestFabricSystemLeavesNoWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		sys, err := NewSystem(ScaleConfig(7, 4, 3, 2, 2))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		if err := sys.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		barriers := 0
		sys.Fabric().ForceParallel = true
		sys.Fabric().BarrierObserver = func(float64) { barriers++ }
		if err := sys.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if barriers == 0 {
			t.Fatal("ForceParallel run never reached the worker barrier")
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d still running, want ≤ %d (dropped system kept its shard workers)",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPDESMetricsPresence pins the observability satellite: the window-
// machinery counters are registered and plumbed through the registry that
// -metrics JSONL and the served /metrics endpoint snapshot. Control
// callbacks that hold the coordinator for 20 ms, far past the barrier's
// spin budget, let the workers park, so pdes_worker_parks must count.
func TestPDESMetricsPresence(t *testing.T) {
	sys, err := NewSystem(ScaleConfig(7, 2, 3, 2, 2))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sys.Stop()
	sys.Fabric().ForceParallel = true
	for _, at := range []time.Duration{500 * time.Millisecond, time.Second, 1500 * time.Millisecond} {
		sys.Scheduler().At(sim.Time(at), func() { time.Sleep(20 * time.Millisecond) })
	}
	if err := sys.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	count := map[string]int{}
	for _, m := range sys.Metrics().Snapshot() {
		count[m.Name]++
		vals[m.Name] = m.Value
	}
	for _, name := range []string{
		"pdes_flush_skipped", "pdes_lookahead_rescans", "pdes_serial_windows",
		"pdes_windows", "pdes_lookahead_ns", "pdes_worker_parks",
	} {
		if count[name] != 1 {
			t.Errorf("%s: %d series, want 1", name, count[name])
		}
	}
	if vals["pdes_lookahead_rescans"] != 1 {
		t.Errorf("pdes_lookahead_rescans = %v, want 1 (cache holds without mutations)",
			vals["pdes_lookahead_rescans"])
	}
	if vals["pdes_flush_skipped"] <= 0 {
		t.Errorf("pdes_flush_skipped = %v, want > 0 (send-free barriers must skip flushing)",
			vals["pdes_flush_skipped"])
	}
	if v, w := vals["pdes_serial_windows"], vals["pdes_windows"]; v < 0 || v > w {
		t.Errorf("pdes_serial_windows = %v outside [0, windows=%v]", v, w)
	}
	if v, w := vals["pdes_worker_parks"], vals["pdes_windows"]-vals["pdes_serial_windows"]; v < 1 || v > w {
		t.Errorf("pdes_worker_parks = %v outside [1, parallel windows=%v]", v, w)
	}
}
