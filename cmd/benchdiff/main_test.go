package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gptpfta/internal/obs"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineDoc = `{
  "goos": "linux", "goarch": "amd64",
  "results": [
    {"name": "BenchmarkScheduler", "iterations": 1000, "ns_per_op": 100, "bytes_per_op": 16, "allocs_per_op": 1},
    {"name": "BenchmarkSystem", "iterations": 10, "ns_per_op": 50000}
  ]
}`

func TestIdenticalInputsExitClean(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	newPath := writeFile(t, "new.json", baselineDoc)
	var out bytes.Buffer
	if err := run([]string{oldPath, newPath}, &out); err != nil {
		t.Fatalf("identical inputs must pass, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("missing clean verdict:\n%s", out.String())
	}
}

func TestNsPerOpRegressionFails(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	regressed := strings.Replace(baselineDoc, `"ns_per_op": 100`, `"ns_per_op": 200`, 1)
	newPath := writeFile(t, "new.json", regressed)
	var out bytes.Buffer
	err := run([]string{oldPath, newPath}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("2x ns/op must regress, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkScheduler ns/op") {
		t.Fatalf("missing regression row:\n%s", out.String())
	}
}

func TestAllocRegressionFails(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	regressed := strings.Replace(baselineDoc, `"allocs_per_op": 1`, `"allocs_per_op": 4`, 1)
	newPath := writeFile(t, "new.json", regressed)
	if err := run([]string{oldPath, newPath}, new(bytes.Buffer)); !errors.Is(err, errRegression) {
		t.Fatalf("4x allocs/op must regress, got: %v", err)
	}
}

func TestPerSeriesOverride(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	regressed := strings.Replace(baselineDoc, `"ns_per_op": 100`, `"ns_per_op": 200`, 1)
	newPath := writeFile(t, "new.json", regressed)
	var out bytes.Buffer
	if err := run([]string{"-per", "BenchmarkScheduler:ns_per_op=3.0", oldPath, newPath}, &out); err != nil {
		t.Fatalf("override to 3x must allow 2x, got: %v\n%s", err, out.String())
	}
}

func TestWarnOnlyAlwaysExitsClean(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	regressed := strings.Replace(baselineDoc, `"ns_per_op": 100`, `"ns_per_op": 1000`, 1)
	newPath := writeFile(t, "new.json", regressed)
	var out bytes.Buffer
	if err := run([]string{"-warn-only", oldPath, newPath}, &out); err != nil {
		t.Fatalf("warn-only must not fail, got: %v", err)
	}
	if !strings.Contains(out.String(), "warn-only") {
		t.Fatalf("missing warn-only note:\n%s", out.String())
	}
}

// TestMixedCPUSeries pins the -cpu 1,2 shape: the same benchmark name at
// two GOMAXPROCS values is two series, each compared with its own
// baseline.
func TestMixedCPUSeries(t *testing.T) {
	const mixed = `{"results": [
    {"name": "BenchmarkPDES", "iterations": 3, "ns_per_op": 100, "gomaxprocs": 1},
    {"name": "BenchmarkPDES", "iterations": 3, "ns_per_op": 60, "gomaxprocs": 2}
  ]}`
	oldPath := writeFile(t, "old.json", mixed)
	var out bytes.Buffer
	if err := run([]string{oldPath, writeFile(t, "same.json", mixed)}, &out); err != nil {
		t.Fatalf("identical mixed inputs must pass, got: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "no baseline") || strings.Contains(out.String(), "missing") {
		t.Fatalf("mixed series were not paired by GOMAXPROCS:\n%s", out.String())
	}
	regressed := strings.Replace(mixed, `"ns_per_op": 60`, `"ns_per_op": 200`, 1)
	out.Reset()
	err := run([]string{oldPath, writeFile(t, "new.json", regressed)}, &out)
	if !errors.Is(err, errRegression) || !strings.Contains(out.String(), "REGRESSION BenchmarkPDES-2 ns/op") {
		t.Fatalf("GOMAXPROCS=2 regression not attributed to its series, got: %v\n%s", err, out.String())
	}
}

func TestMissingBenchmarkIsInformational(t *testing.T) {
	oldPath := writeFile(t, "old.json", baselineDoc)
	trimmed := `{"results": [{"name": "BenchmarkScheduler", "iterations": 1000, "ns_per_op": 100}]}`
	newPath := writeFile(t, "new.json", trimmed)
	var out bytes.Buffer
	if err := run([]string{oldPath, newPath}, &out); err != nil {
		t.Fatalf("missing benchmark must not fail, got: %v", err)
	}
	if !strings.Contains(out.String(), "missing BenchmarkSystem") {
		t.Fatalf("missing-benchmark note absent:\n%s", out.String())
	}
}

func snapshotFile(t *testing.T, name string, fill func(*obs.Registry)) string {
	t.Helper()
	reg := obs.NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, "run1", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, name, buf.String())
}

func TestMetricsModeDriftBothDirections(t *testing.T) {
	oldPath := snapshotFile(t, "old.jsonl", func(r *obs.Registry) {
		r.Counter("frames", obs.L("node", "sw1")).Add(100)
	})
	doubled := snapshotFile(t, "new.jsonl", func(r *obs.Registry) {
		r.Counter("frames", obs.L("node", "sw1")).Add(200)
	})
	halved := snapshotFile(t, "half.jsonl", func(r *obs.Registry) {
		r.Counter("frames", obs.L("node", "sw1")).Add(50)
	})

	if err := run([]string{"-metrics", oldPath, oldPath}, new(bytes.Buffer)); err != nil {
		t.Fatalf("identical snapshots must pass, got: %v", err)
	}
	if err := run([]string{"-metrics", oldPath, doubled}, new(bytes.Buffer)); !errors.Is(err, errRegression) {
		t.Fatalf("2x counter must flag drift, got: %v", err)
	}
	if err := run([]string{"-metrics", oldPath, halved}, new(bytes.Buffer)); !errors.Is(err, errRegression) {
		t.Fatalf("0.5x counter must flag drift (both directions), got: %v", err)
	}
	if err := run([]string{"-metrics", "-threshold", "4", oldPath, doubled}, new(bytes.Buffer)); err != nil {
		t.Fatalf("generous threshold must pass, got: %v", err)
	}
}

// TestMetricsModeOneSidedSeries pins the chaos-composition contract: series
// present in only one snapshot (e.g. chaos_actions counters from a -chaos
// run diffed against a plain baseline) are reported as added/removed and
// never fail the comparison.
func TestMetricsModeOneSidedSeries(t *testing.T) {
	plain := snapshotFile(t, "plain.jsonl", func(r *obs.Registry) {
		r.Counter("frames", obs.L("node", "sw1")).Add(100)
	})
	withChaos := snapshotFile(t, "chaos.jsonl", func(r *obs.Registry) {
		r.Counter("frames", obs.L("node", "sw1")).Add(100)
		r.Counter("chaos_actions", obs.L("op", "partition")).Add(3)
	})

	var out bytes.Buffer
	if err := run([]string{"-metrics", plain, withChaos}, &out); err != nil {
		t.Fatalf("added series must be informational, got: %v", err)
	}
	if !strings.Contains(out.String(), "added  run1 chaos_actions") {
		t.Fatalf("added series not reported:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-metrics", withChaos, plain}, &out); err != nil {
		t.Fatalf("removed series must be informational, got: %v", err)
	}
	if !strings.Contains(out.String(), "removed run1 chaos_actions") {
		t.Fatalf("removed series not reported:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run([]string{"only-one.json"}, new(bytes.Buffer)); err == nil {
		t.Fatal("one input must be a usage error")
	}
	bad := writeFile(t, "bad.json", "{not json")
	good := writeFile(t, "good.json", baselineDoc)
	if err := run([]string{bad, good}, new(bytes.Buffer)); err == nil || errors.Is(err, errRegression) {
		t.Fatalf("parse failure must be an operational error, got: %v", err)
	}
}

func TestOneSidedFileIsInformational(t *testing.T) {
	present := writeFile(t, "present.json", baselineDoc)
	absent := filepath.Join(t.TempDir(), "absent.json")

	var out bytes.Buffer
	if err := run([]string{absent, present}, &out); err != nil {
		t.Fatalf("new suite without baseline must pass, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "added   BenchmarkScheduler") ||
		!strings.Contains(out.String(), "added suite (2 series added") {
		t.Fatalf("missing added report:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{present, absent}, &out); err != nil {
		t.Fatalf("removed suite must pass, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "removed BenchmarkSystem") ||
		!strings.Contains(out.String(), "removed suite (2 series removed") {
		t.Fatalf("missing removed report:\n%s", out.String())
	}

	// Both sides missing stays an operational error (exit 2 path).
	out.Reset()
	if err := run([]string{absent, filepath.Join(t.TempDir(), "gone.json")}, &out); err == nil ||
		errors.Is(err, errRegression) {
		t.Fatalf("both files missing must be an operational error, got: %v", err)
	}
}

func TestOneSidedMetricsFileIsInformational(t *testing.T) {
	path := writeFile(t, "metrics.jsonl", "")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, "run", []obs.Metric{{Name: "sim_events_processed", Value: 10}}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"-metrics", filepath.Join(t.TempDir(), "absent.jsonl"), path}, &out); err != nil {
		t.Fatalf("one-sided metrics snapshot must pass, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "added   run sim_events_processed") {
		t.Fatalf("missing added series report:\n%s", out.String())
	}
}
