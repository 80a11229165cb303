package attack

import (
	"reflect"
	"testing"

	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

func TestCVEAliasMatchesRenamedConstant(t *testing.T) {
	// The constant must name the paper's CVE with all of its digits.
	if CVE201818955 != "CVE-2018-18955" {
		t.Fatalf("CVE201818955 = %q, want CVE-2018-18955", CVE201818955)
	}
}

func TestSharedVulnerabilitiesTable(t *testing.T) {
	shared := VulnDB{}
	shared.AddVulnerability("CVE-A", "v1")
	shared.AddVulnerability("CVE-A", "v2")
	shared.AddVulnerability("CVE-B", "v1")
	shared.AddVulnerability("CVE-B", "v2")
	shared.AddVulnerability("CVE-C", "v2")
	for _, tc := range []struct {
		name           string
		db             VulnDB
		kernelA, kernB string
		want           int
	}{
		{"empty db", VulnDB{}, "v1", "v2", 0},
		{"nil db", nil, "v1", "v2", 0},
		{"same kernel counts own CVEs", shared, "v1", "v1", 2},
		{"two shared", shared, "v1", "v2", 2},
		{"one side unknown", shared, "v1", "v9", 0},
		{"both unknown", shared, "v8", "v9", 0},
		{"default db identical kernels", DefaultVulnDB(), VulnerableKernel, VulnerableKernel, 1},
		{"default db diverse pair", DefaultVulnDB(), VulnerableKernel, "v5.10.46", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.db.SharedVulnerabilities(tc.kernelA, tc.kernB); got != tc.want {
				t.Fatalf("SharedVulnerabilities(%q, %q) = %d, want %d",
					tc.kernelA, tc.kernB, got, tc.want)
			}
		})
	}
}

func TestExploitAgainstEmptyDB(t *testing.T) {
	// An attacker with credentials and a vulnerable target still fails when
	// the vulnerability database is empty: no exploit, no compromise.
	a := NewAttacker(VulnDB{}, CVE201818955, "c41")
	if r := a.Exploit(&fakeTarget{name: "c41", kernel: VulnerableKernel}, -24000); r.Success {
		t.Fatal("exploit succeeded against an empty vulnerability database")
	}
}

func TestCampaignAllVulnerable(t *testing.T) {
	// The all-vulnerable edge: every grandmaster runs the exploitable
	// kernel, so a campaign across the full target order compromises all.
	targets := CampaignTargets(DefaultTargetOrder(), len(DefaultTargetOrder()))
	a := NewAttacker(DefaultVulnDB(), CVE201818955, targets...)
	for _, name := range targets {
		a.Exploit(&fakeTarget{name: name, kernel: VulnerableKernel}, -24000)
	}
	if got := len(a.Compromised()); got != len(targets) {
		t.Fatalf("compromised %d of %d all-vulnerable targets", got, len(targets))
	}
}

func TestCampaignTargetsClamp(t *testing.T) {
	order := DefaultTargetOrder()
	for _, tc := range []struct {
		name string
		n    int
		want []string
	}{
		{"zero", 0, nil},
		{"negative", -3, nil},
		{"one", 1, []string{"c41"}},
		{"two are the paper targets", 2, []string{"c41", "c11"}},
		{"exact", 4, []string{"c41", "c11", "c21", "c31"}},
		{"more adversaries than grandmasters", 9, []string{"c41", "c11", "c21", "c31"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := CampaignTargets(order, tc.n); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("CampaignTargets(%d) = %v, want %v", tc.n, got, tc.want)
			}
		})
	}
	// The helper must copy, never alias, the canonical order.
	got := CampaignTargets(order, 4)
	got[0] = "mutated"
	if order[0] != "c41" {
		t.Fatal("CampaignTargets aliases its input slice")
	}
}

func TestParseBehaviorKind(t *testing.T) {
	for in, want := range map[string]BehaviorKind{
		"": BehaviorConstant, "constant": BehaviorConstant,
		"ramp": BehaviorRamp, "wander": BehaviorWander,
	} {
		got, err := ParseBehaviorKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseBehaviorKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseBehaviorKind("teleport"); err == nil {
		t.Fatal("unknown behavior accepted")
	}
}

func TestAdversaryBehaviors(t *testing.T) {
	con := NewAdversary(Behavior{Kind: BehaviorConstant, OffsetNS: -24000}, nil)
	if got := con.Offset(100); got != -24000 {
		t.Fatalf("constant offset = %v", got)
	}
	ramp := NewAdversary(Behavior{Kind: BehaviorRamp, OffsetNS: -1000, SlewNSPerSec: -500}, nil)
	if got := ramp.Offset(10); got != -6000 {
		t.Fatalf("ramp offset = %v, want -6000", got)
	}

	// Wander draws from its stream: two adversaries on identical streams
	// walk identically; a nil stream degrades to the base offset.
	a := NewAdversary(Behavior{Kind: BehaviorWander, OffsetNS: -24000, WanderNSPerStep: 100},
		sim.NewStreams(7).Stream("attack/c41"))
	b := NewAdversary(Behavior{Kind: BehaviorWander, OffsetNS: -24000, WanderNSPerStep: 100},
		sim.NewStreams(7).Stream("attack/c41"))
	moved := false
	for i := 0; i < 8; i++ {
		va, vb := a.Offset(float64(i)), b.Offset(float64(i))
		if va != vb {
			t.Fatalf("same-stream wander diverged at step %d: %v vs %v", i, va, vb)
		}
		if va != -24000 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("wander never moved off the base offset")
	}
	silent := NewAdversary(Behavior{Kind: BehaviorWander, OffsetNS: -24000, WanderNSPerStep: 100}, nil)
	if got := silent.Offset(1); got != -24000 {
		t.Fatalf("nil-stream wander = %v, want base offset", got)
	}
}

func TestBehaviorStatic(t *testing.T) {
	for _, tc := range []struct {
		b    Behavior
		want bool
	}{
		{Behavior{Kind: BehaviorConstant, OffsetNS: -24000}, true},
		{Behavior{Kind: BehaviorRamp}, true},
		{Behavior{Kind: BehaviorRamp, SlewNSPerSec: 1}, false},
		{Behavior{Kind: BehaviorWander}, true},
		{Behavior{Kind: BehaviorWander, WanderNSPerStep: 1}, false},
	} {
		if got := tc.b.Static(); got != tc.want {
			t.Fatalf("Static(%+v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestSyncDelayAttackSelectivity(t *testing.T) {
	atk := SyncDelayAttack{DelayNS: 24000, Dir: 0, Domain: -1}
	sync := &netsim.Frame{Priority: netsim.PriorityPTP, Payload: &gptp.Sync{Domain: 2}}
	if got := atk.ExtraDelayNS(sync, 0); got != 24000 {
		t.Fatalf("Sync dir 0 delay = %v, want 24000", got)
	}
	if got := atk.ExtraDelayNS(sync, 1); got != 0 {
		t.Fatalf("wrong-direction frame delayed by %v", got)
	}
	fu := &netsim.Frame{Priority: netsim.PriorityPTP, Payload: &gptp.FollowUp{Domain: 2}}
	if got := atk.ExtraDelayNS(fu, 0); got != 0 {
		t.Fatalf("FollowUp delayed by %v — pdelay/non-Sync frames must pass unharmed", got)
	}
	meas := &netsim.Frame{Priority: netsim.PriorityMeasure, Payload: &gptp.Sync{Domain: 2}}
	if got := atk.ExtraDelayNS(meas, 0); got != 0 {
		t.Fatalf("non-PTP-priority frame delayed by %v", got)
	}

	scoped := SyncDelayAttack{DelayNS: 24000, Dir: 0, Domain: 3}
	if got := scoped.ExtraDelayNS(sync, 0); got != 0 {
		t.Fatalf("foreign-domain Sync delayed by %v", got)
	}
	if got := scoped.ExtraDelayNS(&netsim.Frame{Priority: netsim.PriorityPTP,
		Payload: &gptp.Sync{Domain: 3}}, 0); got != 24000 {
		t.Fatalf("scoped-domain Sync delay = %v, want 24000", got)
	}

	off := SyncDelayAttack{DelayNS: 0, Dir: 0, Domain: -1}
	if got := off.ExtraDelayNS(sync, 0); got != 0 {
		t.Fatalf("zero-delay attack returned %v", got)
	}
}
