package core

import (
	"strings"
	"testing"
)

func TestDescribeTopology(t *testing.T) {
	sys, err := NewSystem(NewConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out := sys.DescribeTopology()
	for _, want := range []string{
		"4 nodes", "grandmaster of dom1", "sw4", "measurement VLAN",
		"slave port", "c42", "external port configuration",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology output missing %q:\n%s", want, out)
		}
	}
	for _, donotwant := range []string{"site", "WAN"} {
		if strings.Contains(out, donotwant) {
			t.Fatalf("single-site topology output mentions %q:\n%s", donotwant, out)
		}
	}
}

func TestDescribeTopologyMultiSite(t *testing.T) {
	cfg := ScaleConfig(1, 3, 2, 1, 1)
	cfg.WanSync.Enabled = true
	cfg.WanSync.F = 1
	cfg.WanSync.Drift.Enabled = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := sys.DescribeTopology()
	for _, want := range []string{
		"wide-area fabric: 3 sites",
		"site 0 (gateway sw1)",
		"site 2 (gateway sw5)",
		"WAN uplink to site 1",
		"WAN gateway chain",
		"sw1-sw3 (site 0 <-> site 1)",
		"sw3-sw5 (site 1 <-> site 2)",
		"asymmetry",
		"site-level FTA: enabled, f = 1, tolerable site failures min(f, ⌊(N−1)/2⌋) = 1",
		"delay drift on",
		"site 1 dom2 (GM c41)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-site topology output missing %q:\n%s", want, out)
		}
	}
}
