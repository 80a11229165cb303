// Command benchjson converts `go test -bench -benchmem` output read from
// stdin into a stable JSON document, so benchmark evidence can be committed
// and diffed (`make bench` writes BENCH_scheduler.json / BENCH_system.json
// with it). Standard columns become typed fields; custom b.ReportMetric
// columns land in a metrics map.
//
// A transcript holding a failed benchmark (a "--- FAIL", "FAIL" or
// "panic:" line), or no benchmark result at all, writes nothing and exits
// 1, so a pipeline whose shell has no pipefail still fails when a
// benchmark does, and a -bench pattern that matches nothing cannot commit
// an empty document.
//
// Usage:
//
//	go test -bench X -benchmem . | benchjson -o BENCH_X.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line. GoMaxProcs is populated only when the
// document mixes lines with differing GOMAXPROCS (e.g. `go test -cpu=1,4`);
// in the common uniform case the value lives once in the Document header.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	GoMaxProcs  int                `json:"gomaxprocs,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the emitted file: environment header plus results.
// GoMaxProcs is recovered from the benchmark-name suffix (the `-N` go test
// appends) and set here only when every line agrees; a mixed run (`go test
// -cpu=1,4`) records it per Result instead, so no line's environment is
// misattributed. NumCPU is sampled from the machine running benchjson,
// which `make bench` pipelines on the same host as the benchmarks.
// Together they make a "this baseline came from a single-core container"
// caveat visible in the committed data instead of a README footnote.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc, err := parse(bufio.NewScanner(in))
	if err != nil {
		return err
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("no Benchmark result lines in the transcript (did the -bench pattern match nothing?)")
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// parse reads the whole transcript and fails, listing the failure lines,
// if any benchmark failed or panicked.
func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{NumCPU: runtime.NumCPU(), Results: []Result{}}
	var failed []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "--- FAIL"), strings.HasPrefix(line, "FAIL"),
			strings.HasPrefix(line, "panic:"):
			failed = append(failed, line)
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, procs, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if procs == 0 {
				// go test appends the -N name suffix only when GOMAXPROCS
				// differs from 1, so its absence means exactly 1.
				procs = 1
			}
			r.GoMaxProcs = procs
			doc.Results = append(doc.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("benchmark run failed:\n%s", strings.Join(failed, "\n"))
	}
	// Hoist a uniform GOMAXPROCS into the header; a mixed run (-cpu=1,4)
	// keeps the per-result values so nothing is misattributed.
	uniform := len(doc.Results) > 0
	for _, r := range doc.Results {
		if r.GoMaxProcs != doc.Results[0].GoMaxProcs {
			uniform = false
			break
		}
	}
	if uniform {
		doc.GoMaxProcs = doc.Results[0].GoMaxProcs
		for i := range doc.Results {
			doc.Results[i].GoMaxProcs = 0
		}
	}
	return doc, nil
}

// parseLine decodes one "BenchmarkX-8  N  v1 unit1  v2 unit2 ..." row,
// returning the GOMAXPROCS the suffix encodes (0 when there is none).
func parseLine(line string) (Result, int, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, 0, fmt.Errorf("short benchmark line: %q", line)
	}
	name, procs := fields[0], 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix; it is environment, not identity —
		// but record it in the document header.
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, 0, fmt.Errorf("bad value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, procs, nil
}
