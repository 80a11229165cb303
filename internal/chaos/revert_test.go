package chaos

import (
	"testing"
	"time"

	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// revertCount reads the chaos_reverts counter back out of a registry.
func revertCount(reg *obs.Registry) float64 {
	var n float64
	for _, m := range reg.Snapshot() {
		if m.Name == "chaos_reverts" {
			n += m.Value
		}
	}
	return n
}

// TestRevertFiresAfterStop pins the plan-end contract: Stop cancels the
// triggers but an already-scheduled revert still fires, so a stopped engine
// never leaves a self-limiting fault latched — for one-shot and periodic
// actions alike.
func TestRevertFiresAfterStop(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{
		{Op: OpLinkDown, Links: []string{"sw1-sw2"},
			At: Duration(time.Second), Duration: Duration(2 * time.Second)},
		{Op: OpLinkDown, Links: []string{"n1"},
			Every: Duration(10 * time.Second), Duration: Duration(4 * time.Second)},
	}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	fired := 0
	e.SetActionObserver(func(Action) { fired++ })

	// Mid-fault for both actions: the one-shot at t=1s and the periodic's
	// first firing at t=10s are live, their reverts (t=3s already fired,
	// t=14s pending) bracket the Stop below.
	if err := tt.sched.RunUntil(sim.Time(11 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !tt.links["n1"].Down() {
		t.Fatal("periodic fault not active at t=11s")
	}
	e.Stop()
	if err := tt.sched.RunUntil(sim.Time(40 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if tt.links["n1"].Down() || tt.links["sw1-sw2"].Down() {
		t.Fatal("fault latched after Stop: the pending revert never fired")
	}
	if fired != 2 {
		t.Fatalf("actions fired %d times, want 2 (no firings after Stop)", fired)
	}
	if got := revertCount(reg); got != 2 {
		t.Fatalf("chaos_reverts = %v, want 2", got)
	}
}

// TestOverlappingActionsSameLink: two periodic link-down actions with
// different periods target the same link, so their fault windows overlap.
// Reverts restore the baseline (they do not reference-count): the earlier
// revert inside an overlap re-raises the link, the later one is an idempotent
// no-op, and once both windows close the link stays up until the next
// trigger.
func TestOverlappingActionsSameLink(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{
		{Op: OpLinkDown, Links: []string{"sw1-sw2"},
			Every: Duration(7 * time.Second), Duration: Duration(2 * time.Second)},
		{Op: OpLinkDown, Links: []string{"sw1-sw2"},
			Every: Duration(10 * time.Second), Duration: Duration(3 * time.Second)},
	}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	l := tt.links["sw1-sw2"]
	// Timeline: fires at 7, 10, 14, 20, 21; reverts at 9, 13, 16, 23, 23.
	// The windows [20,23) and [21,23) overlap; both reverts land at t=23.
	checks := []struct {
		at   time.Duration
		down bool
		why  string
	}{
		{8 * time.Second, true, "first 7s-period window"},
		{9500 * time.Millisecond, false, "between windows"},
		{12 * time.Second, true, "first 10s-period window"},
		{22 * time.Second, true, "overlap of both windows"},
		{24 * time.Second, false, "both overlapping windows reverted"},
	}
	for _, c := range checks {
		if err := tt.sched.RunUntil(sim.Time(c.at)); err != nil {
			t.Fatal(err)
		}
		if l.Down() != c.down {
			t.Fatalf("t=%v (%s): down=%v, want %v", c.at, c.why, l.Down(), c.down)
		}
	}
	e.Stop()
	if got := revertCount(reg); got != 5 {
		t.Fatalf("chaos_reverts = %v, want 5 (overlapping reverts both fire)", got)
	}
}

// TestOverlappingPartitionsRevertOwnCut: two partitions whose fault windows
// overlap cut disjoint links. Each revert restores only the cut set its own
// firing computed, so the second partition's link stays down past the first
// one's duration until its own revert.
func TestOverlappingPartitionsRevertOwnCut(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{
		{Op: OpPartition, Groups: [][]string{{"n1"}, {"sw1"}},
			At: Duration(time.Second), Duration: Duration(4 * time.Second)},
		{Op: OpPartition, Groups: [][]string{{"sw1"}, {"sw2"}},
			At: Duration(2 * time.Second), Duration: Duration(6 * time.Second)},
	}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	first, second := tt.links["n1"], tt.links["sw1-sw2"]
	checks := []struct {
		at                    time.Duration
		firstDown, secondDown bool
		why                   string
	}{
		{1500 * time.Millisecond, true, false, "first partition only"},
		{3 * time.Second, true, true, "both partitions live"},
		{6 * time.Second, false, true, "first reverted at 5s, second live until 8s"},
		{9 * time.Second, false, false, "both reverted"},
	}
	for _, c := range checks {
		if err := tt.sched.RunUntil(sim.Time(c.at)); err != nil {
			t.Fatal(err)
		}
		if first.Down() != c.firstDown || second.Down() != c.secondDown {
			t.Fatalf("t=%v (%s): n1 down=%v, sw1-sw2 down=%v, want %v, %v",
				c.at, c.why, first.Down(), second.Down(), c.firstDown, c.secondDown)
		}
	}
	if tt.links["n2"].Down() {
		t.Fatal("a link outside both cut sets went down")
	}
	if got := revertCount(reg); got != 2 {
		t.Fatalf("chaos_reverts = %v, want 2", got)
	}
}

// TestSchedulerSnapshotReplaysPartitionRevert: a partition's pending revert
// lives in the scheduler, so snapshotting only the scheduler and the link
// in the middle of the fault and restoring after the fault has healed
// replays the remainder bit-identically: the re-armed revert heals the
// link again.
func TestSchedulerSnapshotReplaysPartitionRevert(t *testing.T) {
	tt := newTopo(t)
	p := &Plan{Actions: []Action{{
		Op:       OpPartition,
		Groups:   [][]string{{"sw1", "n1"}, {"sw2", "n2"}},
		At:       Duration(time.Second),
		Duration: Duration(4 * time.Second),
	}}}
	e := mustEngine(t, tt, p)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	l := tt.links["sw1-sw2"]
	if err := tt.sched.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !l.Down() {
		t.Fatal("partition not active at t=2s")
	}
	schedSnap := tt.sched.Snapshot()
	linkSnap := l.Snapshot()

	// Play past the revert at t=5s.
	if err := tt.sched.RunUntil(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Fatal("fault not healed at t=6s")
	}

	// Rewind to the mid-fault instant and replay.
	tt.sched.Restore(schedSnap)
	l.Restore(linkSnap)
	if tt.sched.Now() != sim.Time(2*time.Second) || !l.Down() {
		t.Fatalf("restore: now=%v down=%v, want t=2s with the fault live", tt.sched.Now(), l.Down())
	}
	if err := tt.sched.RunUntil(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Fatal("replayed revert did not heal the link")
	}
	if got := revertCount(reg); got != 2 {
		t.Fatalf("chaos_reverts = %v, want 2 (one per replay)", got)
	}
}
