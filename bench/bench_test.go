package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/fta"
)

func TestQuantileMatchesExclusiveMethod(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		got := []float64{quantile(tc.xs, 0.25), median(tc.xs), quantile(tc.xs, 0.75)}
		want := []float64{tc.q1, tc.q2, tc.q3}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("quartiles of %v = %v, want %v", tc.xs, got, want)
				break
			}
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if v, ok := tailAt(ramp(99), 0.9); ok {
		t.Errorf("p90 of 99 samples = %v, want nothing: only 9 lie beyond it", v)
	}
	if _, ok := tailAt(nil, 0.9); ok {
		t.Error("p90 of no samples reported a value")
	}
	v, ok := tailAt(ramp(100), 0.9)
	if !ok || math.Abs(v-90.9) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.9, true", v, ok)
	}
}

func TestFrameLayer(t *testing.T) {
	for _, tc := range []struct {
		fn, file, want  string
		module, runtime bool
	}{
		{"gptpfta/internal/sim.(*Scheduler).Run", "/src/internal/sim/scheduler.go", "sim", true, false},
		{"gptpfta/internal/sim.(*Fabric).RunFor", "/src/internal/sim/fabric.go", "sim_fabric", true, false},
		{"gptpfta/internal/sim.(*worker).loop", "/src/internal/sim/fabric_worker.go", "sim_fabric", true, false},
		{"gptpfta/internal/netsim.(*Link).deliver", "/src/internal/netsim/link.go", "netsim", true, false},
		{"gptpfta/internal/attack/bounds.Tolerable", "/src/internal/attack/bounds/bounds.go", "other", true, false},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "", false, true},
		{"racecall", "", "", false, true},
		{"net/http.(*conn).serve", "/go/src/net/http/server.go", "", false, false},
		{"main.busy", "/src/bench/bench_test.go", "", false, false},
	} {
		got, module := moduleLayer(tc.fn, tc.file)
		if got != tc.want || module != tc.module {
			t.Errorf("moduleLayer(%q) = %q, %v; want %q, %v", tc.fn, got, module, tc.want, tc.module)
		}
		if rt := isRuntimeFunc(tc.fn); rt != tc.runtime {
			t.Errorf("isRuntimeFunc(%q) = %v, want %v", tc.fn, rt, tc.runtime)
		}
	}
}

// spin burns CPU in this package, which has no module frame.
//
//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileAttribution profiles a known split of work with runtime/pprof
// and checks that the decoder sends each half to its layer: fta.Aggregate
// to fta, a loop in this package to other.
func TestProfileAttribution(t *testing.T) {
	readings := []fta.Reading{
		{Domain: 0, OffsetNS: 120, Fresh: true},
		{Domain: 1, OffsetNS: -80, Fresh: true},
		{Domain: 2, OffsetNS: 40, Fresh: true},
		{Domain: 3, OffsetNS: -24000, Fresh: true},
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			if _, _, err := fta.Aggregate(readings, 1, 10000, fta.FlagMonitor); err != nil {
				t.Fatal(err)
			}
		}
	}
	spin(time.Now().Add(400 * time.Millisecond))
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, total := p.layerCPU()
	if total == 0 {
		t.Fatal("profile holds no CPU time")
	}
	// Each half should get about half the CPU time; the race detector's
	// overhead, attributed to runtime, can take a large share of it.
	for layer, ns := range byLayer {
		share := float64(ns) / float64(total)
		switch layer {
		case "fta", "other":
			if share < 0.1 {
				t.Errorf("%s share = %.2f of %v, want about half", layer, share, byLayer)
			}
		case "runtime":
		default:
			if share > 0.05 {
				t.Errorf("%s share = %.2f of %v, want none", layer, share, byLayer)
			}
		}
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

// Toy sizes run every workload through the code the full benchmark runs,
// in well under a second each of simulation.
var (
	meshToy     = simSize{converge: 10 * time.Second, chunk: 10 * time.Second, chunks: 13}
	fabricToy   = simSize{converge: time.Second, chunk: 5 * time.Second, chunks: 8, sites: 2}
	toyChaos    = chaosConfig{Duration: time.Minute, ChaosStart: 30 * time.Second, Burst: []float64{0.5}, Partitions: []time.Duration{time.Second}, Parallel: 2}
	campaignToy = campaignSize{setups: 1, converge: 25 * time.Second, forks: 2, traced: 1, sweep: toyChaos}
	servedToy   = servedSize{setups: 1, shared: 2, block: 2, traced: 2, job: toyChaos}
)

func TestWorkloadsAtToySize(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(r *run) error
	}{
		{"mesh", func(r *run) error { return runSim(r, "mesh", meshToy, nil) }},
		{"fabric", func(r *run) error { return runSim(r, "fabric", fabricToy, nil) }},
		{"campaign", func(r *run) error { return runCampaign(r, campaignToy, nil) }},
		{"served", func(r *run) error { return runServed(r, servedToy, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A zero budget runs one measured repetition, then the traced one.
			r := newRun(3, 0, true)
			if err := tc.run(r); err != nil {
				t.Fatal(err)
			}
			if r.untracedRSS <= 0 {
				t.Error("peak RSS was not read before the traced phase")
			}
			r.putRSS()
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d operations failed", r.failed, r.attempted)
			}
			for _, c := range r.checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			got := map[string]float64{}
			for _, m := range r.metrics {
				got[m.Name] = m.Value
			}
			for _, s := range endToEnd {
				if v, ok := got[s.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v; want a positive value", s.name, v, ok)
				}
			}
			var shares float64
			for _, l := range profileLayers {
				shares += got[l+".self_share"]
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("self shares sum to %v, want 1", shares)
			}
			if got["bench.trace_overhead"] <= 0 {
				t.Error("no trace overhead reported")
			}
			checkSpans(t, r)
		})
	}
}

// checkSpans decodes the run's Chrome trace and checks that every span is
// closed and that all spans below a served job share its request id.
func checkSpans(t *testing.T, r *run) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.spans.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range r.spans.spans {
		if s.End.IsZero() {
			t.Errorf("span %s (%d) never ended", s.Name, s.ID)
		}
		if s.Parent != 0 {
			if p := r.spans.spans[s.Parent-1]; p.Name == "served.job" && s.Req != p.Req {
				t.Errorf("span %s has request %q under job %q", s.Name, s.Req, p.Req)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json equal to the
// metric and workload lists this package reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []spec, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the benchmark %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layers []spec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, spec{m.Name, m.Unit, m.Better})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
}

func TestGoldenFile(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := jobSeeds(g.Seed, servedFull, 0)
	for _, s := range shared {
		if _, ok := g.Served.SharedSHA256[strconv.FormatInt(s, 10)]; !ok {
			t.Errorf("no pinned digest for shared seed %d", s)
		}
	}
}
