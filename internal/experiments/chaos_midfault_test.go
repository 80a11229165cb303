package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
)

// TestForkEquivalenceMidFaultChaos pins the mid-fault fork contract: a
// snapshot taken while a partition is live — its revert, holding the cut
// set, already queued in the scheduler — forks into a continuation
// bit-identical to the uninterrupted run. The warm campaigns only ever fork
// before the first fault; this is the stronger case.
func TestForkEquivalenceMidFaultChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("triple full-system chaos run")
	}
	cfg := NetworkChaosConfig{
		Seed:               2,
		Duration:           4*time.Minute + 30*time.Second,
		ChaosStart:         2 * time.Minute,
		PartitionDurations: []time.Duration{30 * time.Second},
		Parallel:           1,
	}.withDefaults()
	plan := partitionPlan(30*time.Second, cfg.ChaosStart)
	midpoint := cfg.ChaosStart + 10*time.Second // inside the fault window

	// The uninterrupted reference run, from the public entrypoint.
	cold, err := NetworkChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref ChaosPoint
	for _, p := range cold.Points {
		if p.Label == plan.Name {
			ref = p
		}
	}
	if ref.Label == "" {
		t.Fatalf("no %q point in the cold sweep", plan.Name)
	}

	// Run a second system into the middle of the partition and snapshot it
	// (scheduler, links, metrics, ...): the partition's pending revert is a
	// scheduler event, so the engine holds nothing to snapshot.
	sys, err := core.NewSystem(chaosSystemConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := chaos.New(sys.Scheduler(), sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.Instrument(sys.Metrics())
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(midpoint); err != nil {
		t.Fatal(err)
	}
	if l := sys.Link("sw1-sw3"); l == nil || !l.Down() {
		t.Fatal("partition not live at the snapshot instant")
	}
	snap := sys.Snapshot()

	finish := func(s *core.System) ChaosPoint {
		t.Helper()
		if err := s.RunFor(cfg.Duration - midpoint); err != nil {
			t.Fatal(err)
		}
		point, _, err := chaosCollect(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		return point
	}
	first := finish(sys)
	if sys.Link("sw1-sw3").Down() {
		t.Fatal("partition never healed in the first continuation")
	}

	forked, err := core.ForkSystem(snap)
	if err != nil {
		t.Fatal(err)
	}
	if l := forked.Link("sw1-sw3"); !l.Down() {
		t.Fatal("fork did not rewind into the live fault")
	}
	second := finish(forked)

	if !reflect.DeepEqual(first, second) {
		t.Fatalf("mid-fault fork diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if !reflect.DeepEqual(first, ref) {
		t.Fatalf("mid-fault continuation diverged from the uninterrupted run:\nref:  %+v\ngot:  %+v", ref, first)
	}
}
