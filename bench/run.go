package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gptpfta/internal/obs"
)

// spec names one reported metric. The lists below are the benchmark's
// metric set; BENCHMARK.json repeats them and a test keeps the two equal.
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported for every
// workload with the CPU profiler off. "Op" is the workload's unit of work:
// one repetition's timed run (60 simulated minutes on mesh, 200 seconds on
// fabric), one warm sweep on campaign, and one job, POST to result read, on
// served.
var endToEnd = []spec{
	{"sim_rate", "sim-s/s", "higher"},
	{"op_p50_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// profileLayers are the buckets the CPU profile is split into: the
// repository's module names, the fabric half of sim, and runtime/other for
// samples with no module frame.
var profileLayers = []string{
	"sim", "sim_fabric", "netsim", "gptp", "ptp4l", "fta", "servo", "phc2sys",
	"hypervisor", "clock", "shmem", "measure", "core", "obs", "faultinject",
	"chaos", "runner", "experiments", "serve", "runtime", "other",
}

// perLayer are the metrics of single layers, reported with -trace 1. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = append([]spec{
	{"core.build_s", "s", "lower"},
	{"core.start_s", "s", "lower"},
	{"core.converge_s", "s", "lower"},
	{"core.snapshot_s", "s", "lower"},
	{"core.fork_s", "s", "lower"},
	{"core.heap_bytes_per_node", "B/node", "lower"},
	{"core.allocs_per_event", "1/event", "lower"},
	{"core.alloc_bytes_per_event", "B/event", "lower"},
	{"core.cpu_util", "cpu-s/s", "higher"},
	{"sim.events_per_sim_s", "1/sim-s", "lower"},
	{"sim.ns_per_event", "ns/event", "lower"},
	{"sim.cancel_ratio", "ratio", "lower"},
	{"sim.fabric_windows_per_sim_s", "1/sim-s", "lower"},
	{"sim.fabric_serial_window_ratio", "ratio", "higher"},
	{"sim.fabric_barrier_wait_share", "share", "lower"},
	{"sim.fabric_flush_skip_ratio", "ratio", "higher"},
	{"sim.fabric_mailbox_frames_per_sim_s", "1/sim-s", "lower"},
	{"sim.fabric_lookahead_rescans", "count", "lower"},
	{"sim.fabric_shard_imbalance", "ratio", "lower"},
	{"netsim.frames_sent_per_sim_s", "1/sim-s", "lower"},
	{"netsim.frames_forwarded_per_sim_s", "1/sim-s", "lower"},
	{"netsim.loss_ratio", "ratio", "lower"},
	{"netsim.pool_hit_rate", "ratio", "higher"},
	{"ptp4l.fta_aggregations_per_sim_s", "1/sim-s", "higher"},
	{"ptp4l.fta_discarded_per_sim_s", "1/sim-s", "lower"},
	{"ptp4l.fta_starved", "count", "lower"},
	{"ptp4l.servo_steps", "count", "lower"},
	{"hypervisor.takeovers", "count", "lower"},
	{"faultinject.failures", "count", "lower"},
	{"chaos.actions", "count", "lower"},
	{"runner.prefix_runs", "count", "lower"},
	{"runner.forks_served", "count", "higher"},
	{"runner.cold_fallbacks", "count", "lower"},
	{"runner.fork_ratio", "ratio", "higher"},
	{"serve.job_p90_s", "s", "lower"},
	{"serve.queue_wait_p50_s", "s", "lower"},
	{"serve.queue_wait_p90_s", "s", "lower"},
	{"serve.run_p50_s", "s", "lower"},
	{"serve.run_p90_s", "s", "lower"},
	{"serve.client_overhead_p50_s", "s", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.evictions_per_job", "1/job", "lower"},
	{"serve.polls_per_job", "1/job", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}, layerSpecs()...)

func layerSpecs() []spec {
	var out []spec
	for _, l := range profileLayers {
		out = append(out, spec{l + ".self_share", "share", "lower"})
	}
	for _, l := range profileLayers {
		out = append(out, spec{l + ".self_ns_per_event", "ns/event", "lower"})
	}
	return out
}

func lookupSpec(name string) (spec, bool) {
	for _, set := range [][]spec{endToEnd, perLayer} {
		for _, s := range set {
			if s.name == name {
				return s, true
			}
		}
	}
	return spec{}, false
}

// metric is one reported value with the spread of the samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is what a workload's child process hands back to the parent.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []check  `json:"checks"`
	Metrics   []metric `json:"metrics"`
	Env       env      `json:"env"`
}

type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

// run is one workload execution: its time budget, the spans and samples
// it records, and the checks it makes.
type run struct {
	seed     int64
	deadline time.Time
	spans    *tracer

	// profile, when non-nil, receives the CPU profile of the workload's
	// traced phase; nil runs no traced phase.
	profile *bytes.Buffer
	// untracedRSS is the peak RSS in MB when the traced phase began; 0
	// until it begins.
	untracedRSS float64

	attempted int
	failed    int
	checks    []check
	metrics   []metric
}

func newRun(seed int64, budget time.Duration, traced bool) *run {
	r := &run{seed: seed, deadline: time.Now().Add(budget), spans: newTracer()}
	if traced {
		r.profile = new(bytes.Buffer)
	}
	return r
}

// timeLeft reports whether the timed phase may start another op or rep.
func (r *run) timeLeft() bool { return time.Now().Before(r.deadline) }

// attempt counts one operation and, when err is non-nil, its failure.
func (r *run) attempt(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// put reports metric name with value v. xs are the samples behind it: n,
// q1 and q3 come from them, or read as one sample of v when xs is nil.
func (r *run) put(name string, v float64, xs []float64) {
	s, ok := lookupSpec(name)
	if !ok {
		panic("bench: unknown metric " + name)
	}
	m := metric{Name: name, Unit: s.unit, Value: v, N: 1, Q1: v, Q3: v}
	if xs != nil {
		m.N, m.Q1, m.Q3 = len(xs), quantile(xs, 0.25), quantile(xs, 0.75)
	}
	r.metrics = append(r.metrics, m)
}

// putMedian reports the median of xs; nothing when xs is empty.
func (r *run) putMedian(name string, xs []float64) {
	if len(xs) > 0 {
		r.put(name, median(xs), xs)
	}
}

// putTail reports the p90 of xs when at least ten samples lie beyond it.
func (r *run) putTail(name string, xs []float64) {
	if v, ok := tailAt(xs, 0.9); ok {
		r.put(name, v, xs)
	}
}

// traced runs fn, the workload's traced phase, under the CPU profiler. Only
// a traced run, one with a profile buffer, has a traced phase.
func (r *run) traced(fn func() error) error {
	r.untracedRSS = peakRSS()
	if err := pprof.StartCPUProfile(r.profile); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	defer pprof.StopCPUProfile()
	return fn()
}

// putProfile attributes the traced phase's CPU profile to layers: each
// layer's share of CPU time and, when events > 0, its CPU ns per simulated
// event. The trace overhead compares the wall time per op of the traced
// phase with that of the untraced one.
func (r *run) putProfile(events uint64, tracedPerOp, untracedPerOp float64) error {
	p, err := parseProfile(r.profile.Bytes())
	if err != nil {
		return err
	}
	byLayer, total := p.layerCPU()
	if total == 0 {
		return fmt.Errorf("CPU profile holds no samples")
	}
	for _, l := range profileLayers {
		r.put(l+".self_share", float64(byLayer[l])/float64(total), nil)
		if events > 0 {
			r.put(l+".self_ns_per_event", float64(byLayer[l])/float64(events), nil)
		}
	}
	if untracedPerOp > 0 {
		r.put("bench.trace_overhead", tracedPerOp/untracedPerOp, nil)
	}
	return nil
}

// putRSS reports max_rss_mb, the process's peak RSS up to the traced phase,
// so that the value does not depend on -trace.
func (r *run) putRSS() {
	mb := r.untracedRSS
	if mb == 0 {
		mb = peakRSS()
	}
	r.put("max_rss_mb", mb, nil)
}

// peakRSS is the process's peak resident set size so far, in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeap collects garbage and returns the bytes still reachable, the
// memory the systems alive at the call hold. It collects twice because a
// sync.Pool, such as netsim's frame pool, keeps its contents through one
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memStats().HeapAlloc
}

// total sums a metric over all its label sets in an obs snapshot.
func total(ms []obs.Metric, name string) float64 {
	var s float64
	for _, m := range ms {
		if m.Name == name {
			s += m.Value
		}
	}
	return s
}

// series returns a metric's values per label set, in snapshot order.
func series(ms []obs.Metric, name string) []float64 {
	var out []float64
	for _, m := range ms {
		if m.Name == name {
			out = append(out, m.Value)
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeArtifacts stores the traced run's CPU profile and spans in dir.
func (r *run) writeArtifacts(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, r.seed))
	if err := os.WriteFile(base+".cpu.pprof", r.profile.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.spans.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeJSON is json.Marshal for values that cannot fail to encode.
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
