package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime/debug"
	"strconv"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
)

// chaosConfig is a netchaos wire config: one run per burst-loss intensity
// and per partition duration. A zero ChaosStart keeps the study's default.
type chaosConfig struct {
	Duration, ChaosStart time.Duration
	Burst                []float64
	Partitions           []time.Duration
	Parallel             int
}

// raw renders the config as the JSON a client sends; durations travel as
// nanosecond integers.
func (c chaosConfig) raw() json.RawMessage {
	m := map[string]any{
		"duration":            int64(c.Duration),
		"burst_bad_loss":      c.Burst,
		"partition_durations": c.Partitions,
		"parallel":            c.Parallel,
	}
	if c.ChaosStart > 0 {
		m["chaos_start"] = int64(c.ChaosStart)
	}
	return encodeJSON(m)
}

// simSeconds is the simulated time one run of the config delivers.
func (c chaosConfig) simSeconds() float64 {
	return float64(len(c.Burst)+len(c.Partitions)) * c.Duration.Seconds()
}

// resultDigest fingerprints a result's Summary and Rows, the part of a
// result the golden digests and the wire envelope share.
func resultDigest(summary string, rows [][]string) string {
	sum := sha256.Sum256(encodeJSON([]any{summary, rows}))
	return hex.EncodeToString(sum[:])
}

// campaignSize shapes the campaign workload.
type campaignSize struct {
	setups   int           // converged meshes built, for the set-up median
	converge time.Duration // how far each is run: the sweep's warm boundary
	forks    int           // Snapshot/ForkSystem pairs timed on the last one
	traced   int           // sweeps in the traced phase
	sweep    chaosConfig
}

// forkStep is how far a system runs between a snapshot and its fork.
const forkStep = time.Second

// campaignFull is the BENCH_sweep plan set: six 6-minute runs with chaos at
// 4.5 minutes, forked from one warm prefix, on two runner workers.
var campaignFull = campaignSize{
	setups: 5, converge: 4*time.Minute + 25*time.Second, forks: 10, traced: 3,
	sweep: chaosConfig{
		Duration:   6 * time.Minute,
		ChaosStart: 4*time.Minute + 30*time.Second,
		Burst:      []float64{0.25, 0.5, 0.9},
		Partitions: []time.Duration{time.Second, 10 * time.Second, 30 * time.Second},
		Parallel:   2,
	},
}

// runCampaign converges the paper mesh sz.setups times (the set-up), times
// Snapshot and ForkSystem on the last one, then runs the warm sweep through
// the experiment registry until the time budget is spent.
func runCampaign(r *run, sz campaignSize, want *golden) error {
	var setup, build, start, converge []float64
	var sys *core.System
	for i := 0; i < sz.setups; i++ {
		if sys != nil {
			sys.Close()
			sys = nil
		}
		debug.FreeOSMemory()
		id := r.spans.begin("setup", 0, "")
		s, t, err := converged(r, id, core.NewConfig(r.seed), sz.converge)
		setup = append(setup, r.spans.end(id).Seconds())
		if err != nil {
			return err
		}
		sys = s
		build = append(build, t.build.Seconds())
		start = append(start, t.start.Seconds())
		converge = append(converge, t.converge.Seconds())
	}
	r.putMedian("setup_s", setup)
	r.putMedian("core.build_s", build)
	r.putMedian("core.start_s", start)
	r.putMedian("core.converge_s", converge)
	r.put("core.heap_bytes_per_node", heapPerNode(sys), nil)

	err := forkRounds(r, sys, sz)
	sys.Close()
	if err != nil {
		return err
	}

	exp, err := experiments.Lookup("netchaos")
	if err != nil {
		return err
	}
	var walls []float64
	var cpu time.Duration
	digests := map[string]bool{}
	counts := map[string][]float64{}
	for len(walls) == 0 || r.timeLeft() {
		cpu0 := cpuTime()
		sw, err := runSweep(r, exp, sz.sweep)
		if err != nil {
			return err
		}
		cpu += cpuTime() - cpu0
		walls = append(walls, sw.wall.Seconds())
		digests[sw.digest] = true
		for k, v := range sw.counts {
			counts[k] = append(counts[k], v)
		}
	}
	r.put("sim_rate", sz.sweep.simSeconds()*float64(len(walls))/sumOf(walls), rates(sz.sweep.simSeconds(), walls))
	r.putMedian("op_p50_s", walls)
	r.put("core.cpu_util", cpu.Seconds()/sumOf(walls), nil)
	for _, k := range []string{"runner.prefix_runs", "runner.forks_served", "runner.cold_fallbacks", "runner.fork_ratio", "chaos.actions"} {
		r.putMedian(k, counts[k])
	}

	var first string
	for d := range digests {
		first = d
	}
	r.check("campaign.repeatable", len(digests) == 1, "%d sweeps, %d distinct digests", len(walls), len(digests))
	warm := true
	for _, f := range counts["runner.fork_ratio"] {
		warm = warm && f == 1
	}
	r.check("campaign.warm", warm, "forks per sweep %v, cold fallbacks %v", counts["runner.forks_served"], counts["runner.cold_fallbacks"])
	if want != nil {
		r.check("campaign.golden", first == want.Campaign.SweepSHA256, "sweep digest %s (want %s)", first, want.Campaign.SweepSHA256)
	}

	if r.profile == nil {
		return nil
	}
	var traced []float64
	if err := r.traced(func() error {
		for i := 0; i < sz.traced; i++ {
			sw, err := runSweep(r, exp, sz.sweep)
			if err != nil {
				return err
			}
			traced = append(traced, sw.wall.Seconds())
		}
		return nil
	}); err != nil {
		return err
	}
	return r.putProfile(0, sumOf(traced)/float64(len(traced)), sumOf(walls)/float64(len(walls)))
}

// rates turns per-op wall times into per-op simulation rates.
func rates(simSeconds float64, walls []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = simSeconds / w
	}
	return out
}

// forkRounds times sz.forks Snapshot/ForkSystem pairs. Between the two
// calls the system runs on by forkStep, so each fork really rewinds; the
// forked system must then replay that step event for event.
func forkRounds(r *run, sys *core.System, sz campaignSize) error {
	var snaps, forks []float64
	replayed := true
	for i := 0; i < sz.forks; i++ {
		var snap any
		d, _ := r.spans.timed("core.Snapshot", 0, func() error { snap = sys.Snapshot(); return nil })
		snaps = append(snaps, d.Seconds())
		at := sys.Now()
		if err := r.attempt(sys.RunFor(forkStep)); err != nil {
			return err
		}
		events := sys.ProcessedEvents()
		var forked *core.System
		d, err := r.spans.timed("core.ForkSystem", 0, func() error {
			var err error
			forked, err = core.ForkSystem(snap)
			return err
		})
		if err := r.attempt(err); err != nil {
			return err
		}
		forks = append(forks, d.Seconds())
		rewound := forked.Now() == at
		if err := r.attempt(forked.RunFor(forkStep)); err != nil {
			return err
		}
		replayed = replayed && rewound && forked.ProcessedEvents() == events
		sys = forked
	}
	r.check("campaign.fork_replays", replayed, "%d forks rewound to the snapshot instant and replayed %v identically", sz.forks, forkStep)
	r.putMedian("core.snapshot_s", snaps)
	r.putMedian("core.fork_s", forks)
	return nil
}

type sweepResult struct {
	wall   time.Duration
	digest string
	counts map[string]float64
}

// runSweep runs one warm netchaos sweep through the registry, the way the
// command-line tools and the job server dispatch it.
func runSweep(r *run, exp experiments.Experiment, c chaosConfig) (sweepResult, error) {
	cfg, err := experiments.SeededConfig(exp, r.seed, c.raw())
	if err != nil {
		return sweepResult{}, err
	}
	reg := obs.NewRegistry()
	cfg, _ = experiments.EnableWarmStart(cfg, reg, nil)
	var res experiments.Result
	wall, err := r.spans.timed("experiments.Run", 0, func() error {
		res, err = exp.Run(context.Background(), cfg)
		return err
	})
	if err := r.attempt(err); err != nil {
		return sweepResult{}, err
	}
	ms := reg.Snapshot()
	forks, cold := total(ms, "runner_forks_served"), total(ms, "runner_cold_fallbacks")
	rows := res.Rows()
	return sweepResult{
		wall:   wall,
		digest: resultDigest(res.Summary(), rows),
		counts: map[string]float64{
			"runner.prefix_runs":    total(ms, "runner_prefix_runs"),
			"runner.forks_served":   forks,
			"runner.cold_fallbacks": cold,
			"runner.fork_ratio":     ratio(forks, forks+cold),
			"chaos.actions":         columnSum(rows, "chaos_actions"),
		},
	}, nil
}

// columnSum adds up the named column of a result table; rows[0] is the
// header.
func columnSum(rows [][]string, col string) float64 {
	if len(rows) == 0 {
		return 0
	}
	idx := -1
	for i, h := range rows[0] {
		if h == col {
			idx = i
		}
	}
	var s float64
	for _, row := range rows[1:] {
		if idx >= 0 && idx < len(row) {
			v, _ := strconv.ParseFloat(row[idx], 64)
			s += v
		}
	}
	return s
}
