// Command bench is the repository's outside-in benchmark. It drives the
// simulator only through the calls its users make — core.NewSystem, Start,
// RunFor, Snapshot and ForkSystem, the fault injector, the experiment
// registry, and the job server over loopback HTTP — on four workloads, and
// checks their outputs against pinned golden values.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//
// Without -workload it runs all four workloads in turn. Each workload runs
// in a child process of its own, so its peak RSS and GC state cannot leak
// into the next. Every metric is printed as
//
//	workload metric value unit n q1 q3
//
// With -workload, the last line is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. -trace 1 also runs one profiled phase
// per workload and writes its CPU profile and the run's spans (Chrome
// trace-event JSON) to -out. The exit code is non-zero when any correctness
// check fails or any operation failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark. why is the reason it
// exists: which layers it loads and which it bypasses.
type workload struct {
	name, why string
	run       func(r *run, want *golden) error
}

var workloads = []workload{
	{"mesh", "the paper's 4-switch testbed under its fault hypothesis; kernel, netsim, gptp and clock carry the cost, fabric and snapshots are bypassed",
		func(r *run, g *golden) error { return runSim(r, "mesh", meshFull, g) }},
	{"fabric", "an 8-site, 96-element fabric on 2 shards; the only workload running the PDES barrier, flush and cross-shard links",
		func(r *run, g *golden) error { return runSim(r, "fabric", fabricFull, g) }},
	{"campaign", "a warm 6-plan netchaos sweep through the registry plus timed Snapshot/ForkSystem; loads snapshot, fork, runner and chaos",
		func(r *run, g *golden) error { return runCampaign(r, campaignFull, g) }},
	{"served", "serve_smoke.sh's job and client, looped; synthetic: 2 ms polls so latency resolves job time, 1 fresh seed in 4 to load cache misses; the only workload loading HTTP and the cache",
		func(r *run, g *golden) error { return runServed(r, servedFull, g) }},
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli parses the flags and runs as the parent or, with -child, as one
// workload's child process. It returns the exit code: 0 when every check
// passed and no operation failed, 1 when one did not, 2 when the benchmark
// itself could not run.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "the workload to run (default: all four in turn)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "time budget of each workload's measured repetitions")
	trace := fs.Int("trace", 0, "1 adds a CPU-profiled phase and reports the per-layer metrics")
	out := fs.String("out", ".bench_build/trace", "directory -trace 1 writes profiles and spans to")
	child := fs.String("child", "", "run this workload in this process and print its report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		w, err := findWorkload(*child)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		rep, err := runWorkload(w, *seed, budget, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return 2
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	childArgs := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(*trace), "-out", *out}
	fmt.Fprintln(stdout, "# workload metric value unit n q1 q3")
	code := 0
	var last *report
	for _, w := range selected {
		rep, err := spawn(w.name, childArgs, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		printReport(stdout, rep)
		if !rep.correct() || rep.Failed > 0 {
			code = 1
		}
		last = rep
	}
	if *name != "" {
		set := endToEnd
		if *trace == 1 {
			set = perLayer
		}
		if err := json.NewEncoder(stdout).Encode(last.summary(set)); err != nil {
			return 2
		}
	}
	return code
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// spawn re-executes the benchmark as the workload's child process and
// returns its report.
func spawn(name string, args []string, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, append([]string{"-child", name}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// runWorkload runs one workload in this process and assembles its report.
// An error the workload returns fails a check rather than the benchmark:
// it is the simulator's failure, and the report still says what ran.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool, out string) (*report, error) {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	g, err := loadGolden()
	if err != nil {
		return nil, fmt.Errorf("golden values: %w", err)
	}
	var want *golden
	if seed == g.Seed {
		want = g
	}
	r := newRun(seed, budget, traced)
	err = w.run(r, want)
	r.putRSS()
	if err != nil {
		r.check(w.name+".completed", false, "%v", err)
	} else if traced {
		if err := r.writeArtifacts(out, w.name); err != nil {
			return nil, fmt.Errorf("write trace artifacts: %w", err)
		}
	}
	return &report{
		Workload: w.name, Seed: seed,
		Attempted: r.attempted, Failed: r.failed,
		Checks: r.checks, Metrics: r.metrics,
		Env: env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), GoVersion: runtime.Version()},
	}, nil
}

func (rep *report) correct() bool {
	for _, c := range rep.Checks {
		if !c.OK {
			return false
		}
	}
	return len(rep.Checks) > 0
}

// summary is the one-line JSON result: every metric of set, 0 for those
// the workload does not exercise.
func (rep *report) summary(set []spec) map[string]any {
	got := map[string]metric{}
	for _, m := range rep.Metrics {
		got[m.Name] = m
	}
	ms := map[string]any{}
	for _, s := range set {
		ms[s.name] = map[string]any{"value": got[s.name].Value, "unit": s.unit}
	}
	return map[string]any{"correct": rep.correct(), "attempted": rep.Attempted, "failed": rep.Failed, "metrics": ms}
}

func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "# %s seed=%d num_cpu=%d gomaxprocs=%d cpu=%q go=%s attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, e.NumCPU, e.GOMAXPROCS, e.CPU, e.GoVersion, rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", c.Name, status, c.Detail)
	}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s %d %.6g %.6g\n", rep.Workload, m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
}

// cpuModel names the host CPU for the report, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
