package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gptpfta/internal/experiments"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
)

// anomalyConfig and anomalyResult make a registry entry whose result
// reports one anomaly verdict, so -fail-on-anomaly can be checked without
// running a campaign.
type anomalyConfig struct {
	Seed int64 `json:"seed"`
}

func (anomalyConfig) Validate() error { return nil }

type anomalyResult struct{}

func (anomalyResult) Summary() string  { return "one anomaly" }
func (anomalyResult) Rows() [][]string { return [][]string{{"verdict"}, {"anomaly"}} }
func (anomalyResult) Anomalies() int   { return 1 }

// seededResult is a test-only result that echoes its seed in its summary,
// its table and its metrics snapshot.
type seededResult struct {
	experiments.ObsSnapshot
	seed int64
}

func (r *seededResult) Summary() string  { return fmt.Sprintf("seed %d", r.seed) }
func (r *seededResult) Rows() [][]string { return [][]string{{"seed"}, {fmt.Sprint(r.seed)}} }

func init() {
	experiments.RegisterFunc("sweep-test-anomaly", "test-only study reporting one anomaly",
		func(seed int64) anomalyConfig { return anomalyConfig{Seed: seed} },
		func(context.Context, anomalyConfig) (experiments.Result, error) { return anomalyResult{}, nil })
	experiments.RegisterFunc("sweep-test-seeded", "test-only study echoing its seed",
		func(seed int64) anomalyConfig { return anomalyConfig{Seed: seed} },
		func(_ context.Context, cfg anomalyConfig) (experiments.Result, error) {
			r := &seededResult{seed: cfg.Seed}
			r.Obs = []obs.Metric{{Name: "seed", Type: "gauge", Value: float64(cfg.Seed)}}
			return r, nil
		})
}

// capture runs sweep with args and returns what it printed to stdout.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

func TestFailOnAnomaly(t *testing.T) {
	if err := run([]string{"-which", "sweep-test-anomaly"}); err != nil {
		t.Fatalf("without -fail-on-anomaly: %v", err)
	}
	err := run([]string{"-which", "sweep-test-anomaly", "-fail-on-anomaly"})
	if err == nil || !strings.Contains(err.Error(), "1 anomaly") {
		t.Fatalf("with -fail-on-anomaly: err = %v, want an anomaly error", err)
	}
}

// TestRegistryStudyWithConfig runs a study outside the curated list by its
// registry name, with a -config overlay shortening it, and checks the
// metrics file it writes.
func TestRegistryStudyWithConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "bounds.json")
	if err := os.WriteFile(cfgPath, []byte(`{"duration": 180000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "metrics.jsonl")
	if err := run([]string{"-which", "bounds", "-config", cfgPath, "-parallel", "1", "-metrics", metricsPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{`"run":"bounds"`, `"run":"runner"`} {
		if !strings.Contains(string(raw), tag) {
			t.Fatalf("metrics file lacks %s lines", tag)
		}
	}
}

// TestBoundsFigure runs the bounds study at seed 2 for two simulated
// minutes and checks that sweep prints its paper figure: the title with
// seed and duration, and the paper's reference values.
func TestBoundsFigure(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "bounds.json")
	if err := os.WriteFile(cfgPath, []byte(`{"duration": 120000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-which", "bounds", "-seed", "2", "-config", cfgPath, "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"=== §III-A3 bound methodology — seed 2, 2m0s fault-free ===\n",
		"paper (§III-B):  d_min=4120ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestUnknownStudyListsRegistry(t *testing.T) {
	err := run([]string{"-which", "nosuch"})
	if err == nil {
		t.Fatal("unknown study accepted")
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not list %q: %v", name, err)
		}
	}
}

// TestSelectPaper: -which paper resolves the seven paper studies without
// running them, and -which all does not pick them up.
func TestSelectPaper(t *testing.T) {
	selected, err := selectStudies("paper")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ key, experiment string }{
		{"paper-bounds", "bounds"},
		{"paper-fig3a", "resilience"},
		{"paper-fig3b", "resilience"},
		{"paper-fig4", "faultinjection"},
		{"paper-ablation-baseline", "baseline"},
		{"paper-ablation-single-domain", "single-domain"},
		{"paper-ablation-flag-policy", "flag-policy"},
	}
	if len(selected) != len(want) {
		t.Fatalf("selected %d studies, want %d", len(selected), len(want))
	}
	for i, s := range selected {
		if s.key != want[i].key || s.experiment != want[i].experiment {
			t.Errorf("study %d = %s (%s), want %s (%s)", i, s.key, s.experiment, want[i].key, want[i].experiment)
		}
		if _, diverse := s.fields["DiverseKernels"]; diverse != (s.key == "paper-fig3b") {
			t.Errorf("%s: DiverseKernels set = %v", s.key, diverse)
		}
	}
	all, err := selectStudies("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if strings.HasPrefix(s.key, "paper") {
			t.Errorf("-which all selects %s", s.key)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "1,,2"},
		{"-seed", "x"},
		{"-seed", "1, 2,1"}, // a repeat would run one key twice
		{"-no-such-flag"},
		{"-shards", "2"}, // sharding is a core.Config property, not a study option
	} {
		if err := run(append(args, "-which", "sweep-test-seeded")); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSeedList: a two-seed run prints one block per seed, byte-identical at
// any worker count, and tags each seed's metrics.
func TestSeedList(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.jsonl")
	args := []string{"-which", "sweep-test-seeded", "-seed", "3, 7", "-metrics", metricsPath}
	seq, err := capture(t, append(args, "-parallel", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, append(args, "-parallel", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("-parallel 1 and 2 differ:\n%s\n---\n%s", seq, par)
	}
	for _, want := range []string{"=== test-only study echoing its seed — seed 3 ===\n  seed 3\n", "— seed 7 ===\n  seed 7\n"} {
		if !strings.Contains(seq, want) {
			t.Fatalf("output lacks %q:\n%s", want, seq)
		}
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{`"run":"sweep-test-seeded/seed/3"`, `"run":"sweep-test-seeded/seed/7"`} {
		if !strings.Contains(string(raw), tag) {
			t.Fatalf("metrics file lacks %s lines:\n%s", tag, raw)
		}
	}
}

// TestCSV: -csv writes the generic table and, for faultinjection, the raw
// series that cmd/replay reads back.
func TestCSV(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "fi.json")
	if err := os.WriteFile(cfgPath, []byte(`{"duration": 180000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if _, err := capture(t, "-which", "faultinjection", "-config", cfgPath, "-csv", out); err != nil {
		t.Fatal(err)
	}
	rows, err := os.ReadFile(filepath.Join(out, "faultinjection.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rows), "mean_ns,std_ns,") {
		t.Fatalf("faultinjection.csv does not start with the Rows() header:\n%s", rows)
	}
	f, err := os.Open(filepath.Join(out, "faultinjection", "samples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := measure.ParseSamplesCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("samples.csv holds no samples")
	}
}
