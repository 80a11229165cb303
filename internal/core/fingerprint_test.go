package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
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
// the kernel traffic counters. Every derived experiment row is a pure
// function of them, so two runs with equal fingerprints are the same run.
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

// digest is a SHA-256 over the fingerprint's printed form. fmt prints every
// float in its shortest round-trip form, so a one-bit difference anywhere
// in the fingerprint changes the digest.
func (fp runFingerprint) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", fp)))
	return hex.EncodeToString(sum[:])
}

func fingerprint(t *testing.T, cfg Config, d time.Duration) runFingerprint {
	t.Helper()
	return fingerprintSetup(t, cfg, d, nil)
}

// fingerprintSetup is fingerprint with a hook between Start and RunFor,
// where the studies attach their injections.
func fingerprintSetup(t *testing.T, cfg Config, d time.Duration, setup func(*System)) runFingerprint {
	t.Helper()
	fp, err := runPrint(cfg, d, setup)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// runPrint builds, starts and runs a system and takes its fingerprint;
// unlike fingerprint it may be called from any goroutine.
func runPrint(cfg Config, d time.Duration, setup func(*System)) (runFingerprint, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return runFingerprint{}, fmt.Errorf("NewSystem: %w", err)
	}
	if err := sys.Start(); err != nil {
		return runFingerprint{}, fmt.Errorf("Start: %w", err)
	}
	if setup != nil {
		setup(sys)
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

// requireDigest fails when a run's fingerprint no longer matches its pinned
// digest. A mismatch means the change altered what is simulated: a tie
// fired in another order, a random draw moved, a frame took another path.
func requireDigest(t *testing.T, label string, fp runFingerprint, want string) {
	t.Helper()
	if got := fp.digest(); got != want {
		t.Errorf("%s: fingerprint digest changed:\n  got  %s\n  want %s", label, got, want)
	}
}

// The digests below pin whole runs bit for bit. They were taken from the
// event kernel whose firing key was (at, schedAt, cause, seq), at a commit
// where a sharded run reproduced each of them at 2, 4 and 8 shards; the
// (at, seq) key must leave every one unchanged. They are the only exact
// pins on the WAN tier, the control-scheduled injectors and the multi-site
// topology.

// TestFingerprintPaper pins 2-s runs of the paper mesh at five seeds.
func TestFingerprintPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("five seeds")
	}
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{31, "2a08e6f0ccf5692d658bcec94397d2aafaae37a724a67d4c3d4a06cadd321f52"},
		{32, "9d773b674716e2e001243c49514ea87bae0cc2770703665ebbbe7d68ba8c2cdc"},
		{33, "f4ab3dd210f9571f4a8a97b27b2da3de46ca7eae1032e8c9149c32647d7cd212"},
		{34, "822d6400398606b6e87135343a15074b488e09f081320406f277ced9ef8eff37"},
		{35, "94e0582c94dbde520b7a171426bd8c60008b2445b4ad38ec36a3b9ce146d1605"},
	} {
		fp := fingerprint(t, NewConfig(tc.seed), 2*time.Second)
		if !fp.haveLat {
			t.Fatalf("seed=%d: run observed no Sync latencies", tc.seed)
		}
		requireDigest(t, fmt.Sprintf("seed=%d", tc.seed), fp, tc.want)
	}
}

// TestFingerprintPaperLong pins two 600-s runs of the paper mesh. Ties
// between same-instant events decide the order of sub-ns probe-sample
// shifts that only grow into ns-shifted events after several minutes (an
// earlier cross-shard ordering bug first showed at t≈83 s for seed 11 and
// t≈494 s for seed 1), so the duration must stay well past 500 s.
func TestFingerprintPaperLong(t *testing.T) {
	if testing.Short() {
		t.Skip("two 600-s runs")
	}
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "97d0cf5d9e6aff81519e93ae718eb3e8f7904aaf163f559ad48717d837edf0f2"},
		{11, "c23a04c54d169c540132caebbb05ece94bd1dfc60e7d44a74062e2af96007304"},
	} {
		requireDigest(t, fmt.Sprintf("long seed=%d", tc.seed),
			fingerprint(t, NewConfig(tc.seed), 600*time.Second), tc.want)
	}
}

// TestFingerprintScale pins a generated three-site fabric, whose
// measurement traffic crosses the metro-latency gateway chain.
func TestFingerprintScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-site run")
	}
	fp := fingerprint(t, ScaleConfig(7, 3, 3, 2), 1200*time.Millisecond)
	if len(fp.events) == 0 {
		t.Fatal("scale run produced no events")
	}
	requireDigest(t, "scale", fp, "b46417650b5de319f2d23eee5043410399b11be04c9055160e71d30a1890fa05")
}

// TestFingerprintWan pins a three-site fabric with the WAN tier and its
// drift process armed; the coordinator's sample series is part of the
// fingerprint.
func TestFingerprintWan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-site run")
	}
	cfg := ScaleConfig(7, 3, 4, 2)
	cfg.WanSync.Enabled = true
	cfg.WanSync.Drift.Enabled = true
	fp := fingerprint(t, cfg, 12*time.Second)
	if fp.wan == "" || fp.wan == "[]" {
		t.Fatal("WAN coordinator took no samples")
	}
	requireDigest(t, "wan", fp, "7a2de1c42243ccd3ea30be181c689b5b398b8f5ef4d4767bb3e349c69f56de74")
}

// TestFingerprintInjected pins the scenarios the studies inject from the
// control scheduler: a fault-injection campaign, a Byzantine grandmaster
// compromise, an on-path Sync delay, a mesh partition and a WAN site
// failure. Each injection is armed between Start and RunFor, where the
// studies attach theirs, and every control-context action is logged at the
// instant it fires, so its timing is part of the fingerprint. The run must
// show the injection took effect.
func TestFingerprintInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("five injected runs")
	}
	paper := func(seed int64) Config {
		cfg := NewConfig(seed)
		cfg.HoldoverWindow = 2 * time.Second
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		d      time.Duration
		inject func(t *testing.T, sys *System)
		want   string // an event kind the run must log
		digest string
	}{
		// FailVM/RebootVM run on the control scheduler and re-arm the
		// rebooted stack's timers. The compressed GM period packs several
		// failure/reboot/takeover cycles into the run.
		{"faultinject", paper(11), 3 * time.Minute, injectFaults, "takeover",
			"1dbe6e225ac29f2372f67463a652b2b47ed3dd2f110cc5b959cba4245ec62327"},
		// Two grandmasters are exploited at one control instant; the wander
		// behavior re-falsifies each every second from its own stream.
		{"byzantine", paper(5), 90 * time.Second, injectByzantine, "exploit",
			"d9ae1a8fb19397b98177ab8b20fbd6391df7f3aba6f18c710ed93385db222211"},
		{"sync-delay", paper(5), 90 * time.Second, injectSyncDelay, "delay_attack",
			"b2fd55d4c339a96060d4df4535335348d1508a51ff2151997cf4171b1a25fbf6"},
		// A 30 s split outlasts the 2 s holdover window.
		{"partition", paper(2), 2 * time.Minute, func(t *testing.T, sys *System) {
			injectPlan(t, sys, &chaos.Plan{Name: "partition", Actions: []chaos.Action{{
				Op:       chaos.OpPartition,
				Groups:   [][]string{{"sw1", "sw2"}, {"sw3", "sw4"}},
				At:       chaos.Duration(time.Minute),
				Duration: chaos.Duration(30 * time.Second),
			}}})
		}, "holdover", "a30ea4beaf8805a53658a30847f215b715dd254c89d5ccb7968abbe7e24ffa16"},
		// Two of four sites fail while the first chain link's asymmetry
		// ramps to 10 µs; the coordinator's samples join the fingerprint.
		{"wan-site-fail", wanSiteFailConfig(), time.Minute, func(t *testing.T, sys *System) {
			at := chaos.Duration(20 * time.Second)
			injectPlan(t, sys, &chaos.Plan{Name: "wan-site-fail", Actions: []chaos.Action{
				{Op: chaos.OpSiteFail, Sites: []int{2, 3}, At: at, Duration: chaos.Duration(15 * time.Second)},
				{Op: chaos.OpWanAsymDrift, Links: []string{sys.WanLinkName(0)}, At: at,
					Duration: chaos.Duration(5 * time.Second), Asym: chaos.Duration(10 * time.Microsecond)},
			}})
		}, "site-fail", "39707fc4ac7817edc24a2972edd0191dd5dd171d30ae65cd27d81373cf3607a5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp := fingerprintSetup(t, tc.cfg, tc.d, func(sys *System) { tc.inject(t, sys) })
			if !containsKind(fp.events, tc.want) {
				t.Fatalf("run logged no %q event", tc.want)
			}
			requireDigest(t, tc.name, fp, tc.digest)
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
func wanSiteFailConfig() Config {
	cfg := ScaleConfig(5, 4, 4, 2)
	cfg.WanSync.Enabled = true
	cfg.WanSync.F = 2
	cfg.WanSync.HoldoverWindow = 2 * time.Second
	return cfg
}
