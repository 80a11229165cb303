// Command benchdiff compares two benchmark evidence files and exits
// non-zero when the new one regressed beyond a threshold — the gate the CI
// bench-smoke job runs against the committed BENCH_*.json baselines.
//
// Default mode reads two benchjson documents (cmd/benchjson output) and
// compares ns/op, B/op and allocs/op per benchmark. With -metrics the
// inputs are obs JSONL snapshots (the -metrics output of the experiment
// CLIs) and numeric drift per series is flagged in either direction.
//
// Usage:
//
//	benchdiff [-threshold 1.25] [-per Name:ns_per_op=2.0,...] [-warn-only] old.json new.json
//	benchdiff -metrics [-threshold 1.25] old.jsonl new.jsonl
//
// -threshold is the allowed new/old ratio. -per overrides it per series:
// keys are "BenchmarkName:metric" (most specific), "BenchmarkName", or
// "metric". -warn-only reports but always exits zero, for informational CI
// jobs. Exit status: 0 clean, 1 regression found, 2 usage or parse error.
//
// An input file that exists on only one side is treated as an added or
// removed benchmark suite: its series are listed informationally and the
// comparison exits 0, so introducing a new BENCH_*.json (or retiring one)
// never breaks the CI gate before its baseline is committed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"gptpfta/internal/obs"
)

// Result mirrors cmd/benchjson's per-benchmark JSON shape.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	GoMaxProcs  int                `json:"gomaxprocs,omitempty"`
}

// series keys a result for comparison. A mixed -cpu run records
// gomaxprocs per result, and one benchmark at two GOMAXPROCS values is two
// series, keyed with a "-N" suffix.
func (r Result) series() string {
	if r.GoMaxProcs == 0 {
		return r.Name
	}
	return fmt.Sprintf("%s-%d", r.Name, r.GoMaxProcs)
}

// Document mirrors cmd/benchjson's file shape.
type Document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// errRegression distinguishes "comparison ran, regressions found" (exit 1)
// from operational errors (exit 2).
var errRegression = errors.New("benchdiff: regression detected")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errRegression):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}

type options struct {
	threshold float64
	perSeries map[string]float64
	warnOnly  bool
	metrics   bool
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 1.25, "allowed new/old ratio before a series counts as regressed")
	per := fs.String("per", "", "per-series overrides: comma-separated key=ratio (key = \"Name:metric\", \"Name\" or \"metric\")")
	warnOnly := fs.Bool("warn-only", false, "report regressions but exit zero (informational CI jobs)")
	metrics := fs.Bool("metrics", false, "inputs are obs JSONL metrics snapshots instead of benchjson documents")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly 2 input files (old new), got %d", fs.NArg())
	}
	if *threshold <= 0 {
		return fmt.Errorf("threshold must be positive, got %v", *threshold)
	}
	opt := options{threshold: *threshold, warnOnly: *warnOnly, metrics: *metrics}
	var err error
	if opt.perSeries, err = parsePer(*per); err != nil {
		return err
	}

	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	if done, err := reportOneSided(oldPath, newPath, opt, w); done || err != nil {
		return err
	}
	var regressions int
	if opt.metrics {
		regressions, err = diffMetrics(oldPath, newPath, opt, w)
	} else {
		regressions, err = diffDocs(oldPath, newPath, opt, w)
	}
	if err != nil {
		return err
	}
	if regressions == 0 {
		fmt.Fprintln(w, "benchdiff: no regressions")
		return nil
	}
	if opt.warnOnly {
		fmt.Fprintf(w, "benchdiff: %d regression(s) (warn-only, not failing)\n", regressions)
		return nil
	}
	return fmt.Errorf("%w: %d series beyond threshold", errRegression, regressions)
}

// reportOneSided handles an evidence file that exists on only one side of
// the diff — a benchmark suite that was just added (no committed baseline
// yet) or removed. That is information, not a failure: the series are
// listed as added/removed and the comparison succeeds with no regressions.
// Both files missing is still an operational error (fall through to the
// normal read path, which reports it with exit 2).
func reportOneSided(oldPath, newPath string, opt options, w io.Writer) (bool, error) {
	_, oldErr := os.Stat(oldPath)
	_, newErr := os.Stat(newPath)
	oldMissing := errors.Is(oldErr, os.ErrNotExist)
	newMissing := errors.Is(newErr, os.ErrNotExist)
	if oldMissing == newMissing {
		return false, nil
	}
	verb, path := "added", newPath
	if newMissing {
		verb, path = "removed", oldPath
	}
	names, err := seriesNames(path, opt.metrics)
	if err != nil {
		return false, err
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %-7s %s: only in %s\n", verb, name, path)
	}
	fmt.Fprintf(w, "benchdiff: %s suite (%d series %s, no baseline comparison)\n", verb, len(names), verb)
	return true, nil
}

// seriesNames lists the series in one evidence file, for the one-sided
// added/removed report.
func seriesNames(path string, metrics bool) ([]string, error) {
	if metrics {
		vals, err := readMetricValues(path)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		return names, nil
	}
	doc, err := readDoc(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(doc.Results))
	for _, r := range doc.Results {
		names = append(names, r.series())
	}
	sort.Strings(names)
	return names, nil
}

// parsePer decodes "key=ratio,key=ratio" overrides.
func parsePer(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -per entry %q (want key=ratio)", part)
		}
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -per ratio in %q", part)
		}
		out[k] = r
	}
	return out, nil
}

// thresholdFor resolves the most specific override for a series.
func (o options) thresholdFor(name, metric string) float64 {
	for _, key := range []string{name + ":" + metric, name, metric} {
		if t, ok := o.perSeries[key]; ok {
			return t
		}
	}
	return o.threshold
}

// check prints one comparison row and reports whether it regressed. A zero
// old value cannot form a ratio; it is reported informationally only.
func check(w io.Writer, name, metric string, oldV, newV, threshold float64, bothWays bool) bool {
	if oldV == 0 {
		if newV != 0 {
			fmt.Fprintf(w, "  new    %s %s: baseline 0, now %g\n", name, metric, newV)
		}
		return false
	}
	ratio := newV / oldV
	bad := ratio > threshold || (bothWays && ratio < 1/threshold)
	if bad {
		fmt.Fprintf(w, "  REGRESSION %s %s: %g -> %g (%.2fx, threshold %.2fx)\n",
			name, metric, oldV, newV, ratio, threshold)
	}
	return bad
}

func readDoc(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// diffDocs compares two benchjson documents per series.
func diffDocs(oldPath, newPath string, opt options, w io.Writer) (int, error) {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return 0, err
	}
	baseline := make(map[string]Result, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		baseline[r.series()] = r
	}
	regressions := 0
	for _, nr := range newDoc.Results {
		key := nr.series()
		or, ok := baseline[key]
		if !ok {
			fmt.Fprintf(w, "  new    %s: no baseline\n", key)
			continue
		}
		delete(baseline, key)
		if check(w, key, "ns/op", or.NsPerOp, nr.NsPerOp, opt.thresholdFor(nr.Name, "ns_per_op"), false) {
			regressions++
		}
		if or.BytesPerOp != nil && nr.BytesPerOp != nil &&
			check(w, key, "B/op", *or.BytesPerOp, *nr.BytesPerOp, opt.thresholdFor(nr.Name, "bytes_per_op"), false) {
			regressions++
		}
		if or.AllocsPerOp != nil && nr.AllocsPerOp != nil &&
			check(w, key, "allocs/op", *or.AllocsPerOp, *nr.AllocsPerOp, opt.thresholdFor(nr.Name, "allocs_per_op"), false) {
			regressions++
		}
	}
	// Benchmarks present in the baseline but missing from the new run are
	// suspicious (renamed or dropped coverage) but not regressions.
	missing := make([]string, 0, len(baseline))
	for name := range baseline {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "  missing %s: in baseline but not in new run\n", name)
	}
	return regressions, nil
}

// diffMetrics compares two obs JSONL snapshots per (run, series) key. Drift
// is flagged in both directions: for sync-quality metrics a large drop can
// be as telling as a large rise.
func diffMetrics(oldPath, newPath string, opt options, w io.Writer) (int, error) {
	oldVals, err := readMetricValues(oldPath)
	if err != nil {
		return 0, err
	}
	newVals, err := readMetricValues(newPath)
	if err != nil {
		return 0, err
	}
	keys := make([]string, 0, len(newVals))
	for k := range newVals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Series present in only one snapshot are informational, never a
	// regression or an error: a chaos-only run adds counters (and a plain
	// run lacks them) without breaking the diff.
	removed := make([]string, 0)
	for k := range oldVals {
		if _, ok := newVals[k]; !ok {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		fmt.Fprintf(w, "  removed %s: only in baseline\n", k)
	}
	regressions := 0
	for _, k := range keys {
		oldV, ok := oldVals[k]
		if !ok {
			fmt.Fprintf(w, "  added  %s: no baseline\n", k)
			continue
		}
		// Per-series overrides key on the metric name without the run tag.
		name := k
		if i := strings.IndexByte(k, ' '); i > 0 {
			name = k[i+1:]
		}
		if check(w, k, "value", oldV, newVals[k], opt.thresholdFor(name, "value"), true) {
			regressions++
		}
	}
	return regressions, nil
}

// readMetricValues flattens a JSONL snapshot to "run key" -> scalar:
// counters and gauges by value, histograms by mean.
func readMetricValues(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(recs))
	for _, r := range recs {
		v := r.Value
		if r.Histogram != nil {
			v = r.Histogram.Mean()
		}
		out[r.Run+" "+r.Key()] = v
	}
	return out, nil
}
