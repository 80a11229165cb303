// Package ttapp models the workload the paper's introduction motivates: a
// distributed time-triggered application. Application VMs co-located with
// the clock-synchronization VMs derive CLOCK_SYNCTIME from STSHMEM and
// release their tasks at global period boundaries; the quality of the
// fault-tolerant clock synchronization translates directly into the
// cross-node release jitter of simultaneous task instances — the paradigm
// from Kopetz's time-triggered architecture the paper builds for.
package ttapp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"gptpfta/internal/sim"
)

// SyncTimeReader reads a node's CLOCK_SYNCTIME (ns) — hypervisor.Node
// satisfies it.
type SyncTimeReader interface {
	SyncTimeNow() (float64, bool)
}

// TaskConfig describes one time-triggered task: instance k is released
// when CLOCK_SYNCTIME reaches k·Period + Offset.
type TaskConfig struct {
	Name   string
	Period time.Duration
	Offset time.Duration
	// Tolerance is the maximum acceptable early wake before re-sleeping.
	// Default 5 µs.
	Tolerance time.Duration
}

func (c TaskConfig) withDefaults() TaskConfig {
	if c.Tolerance <= 0 {
		c.Tolerance = 5 * time.Microsecond
	}
	return c
}

// Release records one task instance release.
type Release struct {
	Cycle int64
	// SyncTimeNS is CLOCK_SYNCTIME at the release.
	SyncTimeNS float64
	// TrueAt is the simulation ground-truth instant — what an external
	// observer (or the physical plant) experiences.
	TrueAt sim.Time
}

// Task is a periodic time-triggered task on one node.
type Task struct {
	cfg      TaskConfig
	node     string
	sched    *sim.Scheduler
	clock    SyncTimeReader
	releases []Release
	running  bool
	skips    uint64
	// pending is the armed wake-up; Stop cancels it, so a Start that
	// follows before it fires begins the only wake chain.
	pending sim.EventID
	// lastCycle enforces monotone cycle numbers: when the dependent clock
	// is adjusted backwards (takeover, attack), the task must not release
	// the same instance twice — clock_nanosleep semantics on a stepped
	// clock.
	lastCycle int64
}

// NewTask creates a task bound to a node's dependent clock.
func NewTask(node string, sched *sim.Scheduler, clock SyncTimeReader, cfg TaskConfig) (*Task, error) {
	if cfg.Period <= 0 {
		return nil, errors.New("ttapp: non-positive period")
	}
	return &Task{cfg: cfg.withDefaults(), node: node, sched: sched, clock: clock}, nil
}

// Start begins releasing instances.
func (t *Task) Start() error {
	if t.running {
		return fmt.Errorf("ttapp: task %s already running", t.cfg.Name)
	}
	t.running = true
	t.scheduleNext()
	return nil
}

// Stop halts the task and cancels its armed wake-up.
func (t *Task) Stop() {
	t.running = false
	t.sched.Cancel(t.pending)
}

// Node reports the hosting node.
func (t *Task) Node() string { return t.node }

// Releases snapshots the release log.
func (t *Task) Releases() []Release {
	return append([]Release(nil), t.releases...)
}

// Skips reports how many wake-ups found CLOCK_SYNCTIME unavailable.
func (t *Task) Skips() uint64 { return t.skips }

// scheduleNext arms a wake-up for the next period boundary. The guest only
// has CLOCK_SYNCTIME, so the sleep duration is computed on that timescale
// (its rate is within ppm of true time); an early wake re-sleeps, like a
// clock_nanosleep(TIMER_ABSTIME) loop on the dependent clock.
func (t *Task) scheduleNext() {
	now, ok := t.clock.SyncTimeNow()
	if !ok {
		t.skips++
		t.pending = t.sched.After(t.cfg.Period, t.scheduleNext)
		return
	}
	period := float64(t.cfg.Period)
	offset := float64(t.cfg.Offset)
	cycle := int64(math.Floor((now-offset)/period)) + 1
	if cycle <= t.lastCycle {
		cycle = t.lastCycle + 1
	}
	target := float64(cycle)*period + offset
	sleep := time.Duration(target - now)
	if sleep < 0 {
		sleep = 0
	}
	t.pending = t.sched.After(sleep, func() { t.wake(cycle, target) })
}

func (t *Task) wake(cycle int64, target float64) {
	now, ok := t.clock.SyncTimeNow()
	if !ok {
		t.skips++
		t.pending = t.sched.After(t.cfg.Period, t.scheduleNext)
		return
	}
	if now < target-float64(t.cfg.Tolerance) {
		// Woke early (the dependent clock was adjusted): re-sleep.
		t.pending = t.sched.After(time.Duration(target-now), func() { t.wake(cycle, target) })
		return
	}
	t.lastCycle = cycle
	t.releases = append(t.releases, Release{Cycle: cycle, SyncTimeNS: now, TrueAt: t.sched.Now()})
	t.scheduleNext()
}

// CycleJitter is the cross-node release spread of one cycle: the true-time
// difference between the first and the last node releasing instance k.
type CycleJitter struct {
	Cycle    int64
	SpreadNS float64
	Nodes    int
}

// CrossNodeJitter correlates the release logs of the same task on several
// nodes and reports the per-cycle release spread — the application-level
// consequence of clock-synchronization precision.
func CrossNodeJitter(tasks []*Task) []CycleJitter {
	type window struct {
		min, max sim.Time
		count    int
	}
	byCycle := make(map[int64]*window)
	for _, t := range tasks {
		for _, r := range t.releases {
			w, ok := byCycle[r.Cycle]
			if !ok {
				byCycle[r.Cycle] = &window{min: r.TrueAt, max: r.TrueAt, count: 1}
				continue
			}
			if r.TrueAt < w.min {
				w.min = r.TrueAt
			}
			if r.TrueAt > w.max {
				w.max = r.TrueAt
			}
			w.count++
		}
	}
	cycles := make([]int64, 0, len(byCycle))
	for c, w := range byCycle {
		if w.count == len(tasks) { // only fully observed cycles
			cycles = append(cycles, c)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	out := make([]CycleJitter, 0, len(cycles))
	for _, c := range cycles {
		w := byCycle[c]
		out = append(out, CycleJitter{Cycle: c, SpreadNS: float64(w.max - w.min), Nodes: w.count})
	}
	return out
}

// JitterStats summarises a jitter series.
type JitterStats struct {
	Cycles int
	MeanNS float64
	MaxNS  float64
}

// String renders the summary.
func (s JitterStats) String() string {
	return fmt.Sprintf("release jitter over %d cycles: mean %.0f ns, max %.0f ns",
		s.Cycles, s.MeanNS, s.MaxNS)
}

// SummarizeJitter computes release-jitter statistics.
func SummarizeJitter(jitter []CycleJitter) JitterStats {
	if len(jitter) == 0 {
		return JitterStats{}
	}
	var sum, max float64
	for _, j := range jitter {
		sum += j.SpreadNS
		if j.SpreadNS > max {
			max = j.SpreadNS
		}
	}
	return JitterStats{Cycles: len(jitter), MeanNS: sum / float64(len(jitter)), MaxNS: max}
}
