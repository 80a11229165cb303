package ttapp

import (
	"testing"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/core"
	"gptpfta/internal/sim"
)

// fakeClock is a SyncTimeReader with a fixed offset from true time.
type fakeClock struct {
	sched  *sim.Scheduler
	offset float64
	valid  bool
}

func (c *fakeClock) SyncTimeNow() (float64, bool) {
	return float64(c.sched.Now()) + c.offset, c.valid
}

func TestTaskReleasesAtBoundaries(t *testing.T) {
	sched := sim.NewScheduler()
	clk := &fakeClock{sched: sched, offset: 1234, valid: true}
	task, err := NewTask("dev1", sched, clk, TaskConfig{Name: "ctrl", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := task.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := sched.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
	task.Stop()
	rel := task.Releases()
	if len(rel) < 95 || len(rel) > 101 {
		t.Fatalf("releases = %d in 1 s at 10 ms period", len(rel))
	}
	for i, r := range rel {
		boundary := float64(r.Cycle) * 10e6
		if r.SyncTimeNS < boundary || r.SyncTimeNS > boundary+10000 {
			t.Fatalf("release %d at synctime %v, want within 10 µs after boundary %v", i, r.SyncTimeNS, boundary)
		}
		if i > 0 && r.Cycle != rel[i-1].Cycle+1 {
			t.Fatalf("cycle skipped: %d -> %d", rel[i-1].Cycle, r.Cycle)
		}
	}
}

func TestTaskOffsetSchedule(t *testing.T) {
	sched := sim.NewScheduler()
	clk := &fakeClock{sched: sched, valid: true}
	task, err := NewTask("dev1", sched, clk, TaskConfig{
		Name: "io", Period: 10 * time.Millisecond, Offset: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(sim.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, r := range task.Releases() {
		phase := r.SyncTimeNS - float64(r.Cycle)*10e6 - 3e6
		if phase < 0 || phase > 10000 {
			t.Fatalf("release phase %v ns relative to offset boundary", phase)
		}
	}
}

// TestTaskRestartKeepsOneWakeChain stops and restarts a task before its
// armed wake-up fires: the restart must not leave a second wake chain that
// releases every cycle twice.
func TestTaskRestartKeepsOneWakeChain(t *testing.T) {
	sched := sim.NewScheduler()
	clk := &fakeClock{sched: sched, valid: true}
	task, err := NewTask("dev1", sched, clk, TaskConfig{Name: "ctrl", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(sim.Time(25 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	task.Stop()
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(sim.Time(75 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rel := task.Releases()
	if len(rel) < 6 {
		t.Fatalf("releases = %d in 75 ms at 10 ms period", len(rel))
	}
	for i := 1; i < len(rel); i++ {
		if rel[i].Cycle <= rel[i-1].Cycle {
			t.Fatalf("release %d: cycle %d after cycle %d", i, rel[i].Cycle, rel[i-1].Cycle)
		}
	}
}

func TestTaskHandlesInvalidClock(t *testing.T) {
	sched := sim.NewScheduler()
	clk := &fakeClock{sched: sched, valid: false}
	task, err := NewTask("dev1", sched, clk, TaskConfig{Name: "x", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(task.Releases()) != 0 {
		t.Fatal("released without a valid clock")
	}
	if task.Skips() == 0 {
		t.Fatal("no skips recorded")
	}
	// The clock becomes valid: releases resume.
	clk.valid = true
	if err := sched.RunUntil(sim.Time(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(task.Releases()) == 0 {
		t.Fatal("did not recover after the clock became valid")
	}
}

func TestTaskValidation(t *testing.T) {
	sched := sim.NewScheduler()
	if _, err := NewTask("dev1", sched, &fakeClock{sched: sched}, TaskConfig{}); err == nil {
		t.Fatal("zero period accepted")
	}
	task, err := NewTask("dev1", sched, &fakeClock{sched: sched, valid: true},
		TaskConfig{Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestCrossNodeJitterSynthetic(t *testing.T) {
	sched := sim.NewScheduler()
	mk := func(offset float64) *Task {
		task, err := NewTask("n", sched, &fakeClock{sched: sched, offset: offset, valid: true},
			TaskConfig{Period: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		return task
	}
	// Clock offsets translate into release-time spread: a clock 400 ns
	// ahead releases 400 ns earlier in true time.
	tasks := []*Task{mk(0), mk(200), mk(400)}
	if err := sched.RunUntil(sim.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	jitter := CrossNodeJitter(tasks)
	if len(jitter) < 40 {
		t.Fatalf("jitter cycles = %d", len(jitter))
	}
	stats := SummarizeJitter(jitter)
	if stats.MeanNS < 300 || stats.MeanNS > 500 {
		t.Fatalf("mean spread %.0f ns, want ≈400 (the synthetic clock spread)", stats.MeanNS)
	}
	if SummarizeJitter(nil).Cycles != 0 {
		t.Fatal("empty summary should be zero")
	}
	if stats.String() == "" {
		t.Fatal("empty string")
	}
}

// TestTimeTriggeredOverFullSystem is the end-to-end CPS story: tasks on
// all four nodes release within the clock-synchronization precision; after
// the attacker compromises two grandmasters, the release jitter explodes.
func TestTimeTriggeredOverFullSystem(t *testing.T) {
	sys, err := core.NewSystem(core.NewConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	var tasks []*Task
	for i, node := range sys.Nodes() {
		task, err := NewTask(core.NodeName(i), sys.Scheduler(), node,
			TaskConfig{Name: "ctrl", Period: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if err := sys.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	healthy := SummarizeJitter(CrossNodeJitter(tasks))
	if healthy.Cycles < 1000 {
		t.Fatalf("cycles = %d, want ~6000", healthy.Cycles)
	}
	if healthy.MeanNS > 2000 {
		t.Fatalf("healthy release jitter %.0f ns, want within the sync precision", healthy.MeanNS)
	}

	// Compromise two grandmasters (the Fig. 3a attack): the application
	// jitter must degrade by orders of magnitude.
	for _, name := range []string{"c11", "c41"} {
		vm, _ := sys.VM(name)
		vm.Stack.Compromise(attack.MaliciousOriginOffsetNS)
	}
	for _, task := range tasks {
		task.Stop()
	}
	var attacked []*Task
	for i, node := range sys.Nodes() {
		task, err := NewTask(core.NodeName(i), sys.Scheduler(), node,
			TaskConfig{Name: "ctrl2", Period: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		attacked = append(attacked, task)
	}
	if err := sys.RunFor(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	broken := SummarizeJitter(CrossNodeJitter(attacked))
	if broken.MaxNS < 10*healthy.MaxNS {
		t.Fatalf("attack did not degrade application jitter: healthy %s vs attacked %s",
			healthy, broken)
	}
}
