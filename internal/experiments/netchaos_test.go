package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gptpfta/internal/obs"
)

// TestNetworkChaosHoldoverDuringPartition is the campaign's acceptance
// check: a partition longer than the holdover window drives the starved
// servos into holdover (visible through the obs counters) and back out
// after the heal, while a partition shorter than the window degrades
// precision gracefully without ever freezing a servo.
func TestNetworkChaosHoldoverDuringPartition(t *testing.T) {
	res, err := NetworkChaos(context.Background(), NetworkChaosConfig{
		Seed:               31,
		Duration:           5 * time.Minute,
		ChaosStart:         2 * time.Minute,
		BurstBadLoss:       []float64{0.9},
		PartitionDurations: []time.Duration{time.Second, 20 * time.Second},
		HoldoverWindow:     2 * time.Second,
		Parallel:           1,
	})
	if err != nil {
		t.Fatalf("network chaos: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Points))
	}
	byLabel := map[string]ChaosPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}

	burst := byLabel["burst bad=0.90"]
	if burst.ChaosActions == 0 || burst.FramesLost == 0 {
		t.Errorf("burst point saw no chaos: %+v", burst)
	}

	short := byLabel["partition 1s"]
	if short.HoldoverEntered != 0 {
		t.Errorf("1 s partition < 2 s holdover window must not freeze a servo: %+v", short)
	}
	if short.Samples == 0 || short.MaxPrecisionNS <= 0 || short.MaxPrecisionNS > 100_000 {
		t.Errorf("short partition did not degrade gracefully: %+v", short)
	}

	long := byLabel["partition 20s"]
	if long.ChaosActions == 0 {
		t.Fatalf("partition action never fired: %+v", long)
	}
	if long.HoldoverEntered == 0 {
		t.Errorf("20 s partition > 2 s window must enter holdover: %+v", long)
	}
	if long.HoldoverExited == 0 {
		t.Errorf("servos must re-acquire after the heal: %+v", long)
	}
	if long.HoldoverExited > long.HoldoverEntered {
		t.Errorf("more holdover exits (%d) than entries (%d)", long.HoldoverExited, long.HoldoverEntered)
	}

	if res.Summary() == "" || len(res.Rows()) != 4 {
		t.Fatal("result rendering contract broken")
	}
	if len(res.ObsMetrics()) == 0 {
		t.Fatal("no obs snapshot carried")
	}
}

// TestNetworkChaosReproducible pins the campaign's determinism guarantee:
// two runs of the same config are byte-identical, sequentially or fanned
// across workers.
func TestNetworkChaosReproducible(t *testing.T) {
	run := func(parallel int) *NetworkChaosResult {
		res, err := NetworkChaos(context.Background(), NetworkChaosConfig{
			Seed:               32,
			Duration:           4 * time.Minute,
			ChaosStart:         2 * time.Minute,
			BurstBadLoss:       []float64{0.5},
			PartitionDurations: []time.Duration{10 * time.Second},
			HoldoverWindow:     2 * time.Second,
			Parallel:           parallel,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res
	}
	a, b, par := run(1), run(1), run(4)
	if !reflect.DeepEqual(a.Rows(), b.Rows()) {
		t.Fatalf("same-seed runs diverge:\n%v\n%v", a.Rows(), b.Rows())
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries diverge:\n%s\n%s", a.Summary(), b.Summary())
	}
	if !reflect.DeepEqual(a.Rows(), par.Rows()) {
		t.Fatal("parallel execution changed the table")
	}
}

// TestFaultInjectionComposesChaos checks the VM injector and the chaos
// engine run in one campaign, with network actions counted in the
// injection stats.
func TestFaultInjectionComposesChaos(t *testing.T) {
	res, err := FaultInjection(context.Background(), FaultInjectionConfig{
		Seed:           33,
		Duration:       6 * time.Minute,
		GMPeriod:       2 * time.Minute,
		HoldoverWindow: 2 * time.Second,
		ChaosPlan:      partitionPlan(15*time.Second, 3*time.Minute),
	})
	if err != nil {
		t.Fatalf("fault injection with chaos: %v", err)
	}
	if res.Injection.NetworkFaults == 0 {
		t.Errorf("chaos actions not composed into injection stats: %+v", res.Injection)
	}
	if got := sumMetric(res.ObsMetrics(), "ptp4l_holdover_entered"); got == 0 {
		t.Error("15 s partition with 2 s window should enter holdover")
	}
	if res.Injection.TotalFailures == 0 {
		t.Errorf("VM campaign suppressed: %+v", res.Injection)
	}
}

// TestNetworkChaosWarmHonoursCustomPlan: a custom plan whose first action
// precedes the default boundary (ChaosStart − guard) must demote the sweep
// to cold runs even with a snapshot cache attached, so its table equals the
// cold one and no point is served from a fork that already ran past the
// plan's first fault.
func TestNetworkChaosWarmHonoursCustomPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "early-partition.json")
	plan := `{"name": "early partition", "actions": [
		{"op": "partition", "groups": [["sw1", "sw2"], ["sw3", "sw4"]], "at": "60s", "duration": "20s"}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := NetworkChaosConfig{Seed: 1, Duration: 4 * time.Minute, PlanPath: path, Parallel: 1}
	cold, err := NetworkChaos(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	reg := obs.NewRegistry()
	cachedCfg := cfg
	cachedCfg.Metrics = reg
	cachedCfg.Snapshots = stubCache{}
	cached, err := NetworkChaos(context.Background(), cachedCfg)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	if forks := metricValue(reg, "runner_forks_served"); forks != 0 {
		t.Fatalf("forks served = %v, want 0 (the plan acts before the boundary)", forks)
	}
	if !reflect.DeepEqual(cold.Rows(), cached.Rows()) {
		t.Fatalf("cached table diverged from cold:\ncold: %v\ncached: %v", cold.Rows(), cached.Rows())
	}
}

// TestNetworkChaosOneListSweep: a config that names only one sweep axis
// runs exactly the points it names; the built-in sweep fills in only when
// neither axis is given.
func TestNetworkChaosOneListSweep(t *testing.T) {
	e, err := Lookup("netchaos")
	if err != nil {
		t.Fatal(err)
	}
	for raw, want := range map[string][]string{
		`{"burst_bad_loss": [0.5]}`:              {"burst bad=0.50"},
		`{"partition_durations": [10000000000]}`: {"partition 10s"},
		`{}`:                                     {"burst bad=0.25", "burst bad=0.90", "partition 1s", "partition 30s"},
	} {
		cfg, err := e.DecodeConfig(json.RawMessage(raw))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		plans, err := cfg.(NetworkChaosConfig).Plans()
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		var got []string
		for _, p := range plans {
			got = append(got, p.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plans %q, want %q", raw, got, want)
		}
	}
}
