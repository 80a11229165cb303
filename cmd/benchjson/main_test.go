package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseUniformProcs pins the common case: every line carries the same
// GOMAXPROCS suffix, which lands once in the document header and never on
// individual results.
func TestParseUniformProcs(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: example.com/p
cpu: Fake CPU @ 2.00GHz
BenchmarkFoo-4   100  12345 ns/op  64 B/op  2 allocs/op
BenchmarkBar-4   200  2345 ns/op  3.5 events/op
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != 4 {
		t.Fatalf("header gomaxprocs = %d, want 4", doc.GoMaxProcs)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(doc.Results))
	}
	for _, r := range doc.Results {
		if r.GoMaxProcs != 0 {
			t.Fatalf("uniform run put gomaxprocs=%d on result %q; it belongs in the header", r.GoMaxProcs, r.Name)
		}
	}
	if doc.Results[0].Name != "BenchmarkFoo" || doc.Results[1].Name != "BenchmarkBar" {
		t.Fatalf("names = %q, %q", doc.Results[0].Name, doc.Results[1].Name)
	}
	if doc.Results[1].Metrics["events/op"] != 3.5 {
		t.Fatalf("custom metric lost: %v", doc.Results[1].Metrics)
	}
}

// TestParseMixedProcs pins the -cpu=1,4 case: differing suffixes must not
// be collapsed into one header value (that misattributes the environment
// for every other line); instead each result records its own.
func TestParseMixedProcs(t *testing.T) {
	in := `BenchmarkFoo     100  50000 ns/op
BenchmarkFoo-4   100  20000 ns/op
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != 0 {
		t.Fatalf("mixed run set header gomaxprocs = %d, want omitted", doc.GoMaxProcs)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(doc.Results))
	}
	if got := doc.Results[0].GoMaxProcs; got != 1 {
		t.Fatalf("unsuffixed line gomaxprocs = %d, want 1", got)
	}
	if got := doc.Results[1].GoMaxProcs; got != 4 {
		t.Fatalf("-4 line gomaxprocs = %d, want 4", got)
	}
}

// TestParseEmpty pins the degenerate input: no benchmark lines, no header
// procs invented.
func TestParseEmpty(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("goos: linux\n")))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != 0 || len(doc.Results) != 0 {
		t.Fatalf("empty input produced gomaxprocs=%d, %d results", doc.GoMaxProcs, len(doc.Results))
	}
}

// TestRunEmptyTranscript pins the other half of the gate: a run whose
// -bench pattern matched nothing prints no Benchmark line, and must fail
// without writing a file rather than commit `"results": []`.
func TestRunEmptyTranscript(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	in := "goos: linux\ngoarch: amd64\npkg: example.com/p\nPASS\nok  \texample.com/p\t0.01s\n"
	if err := run([]string{"-o", out}, strings.NewReader(in), io.Discard); err == nil {
		t.Fatal("transcript without results converted without error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("empty transcript wrote %s (stat err %v)", out, err)
	}
}

// TestRunFailedTranscript pins the pipeline gate: a transcript in which a
// benchmark failed or panicked must make benchjson fail and write no file,
// even though the passing lines parse, so `go test -bench … | benchjson`
// fails without pipefail.
func TestRunFailedTranscript(t *testing.T) {
	for name, in := range map[string]string{
		"fail": `goos: linux
BenchmarkFoo-2   100  12345 ns/op
--- FAIL: BenchmarkBar-2
    bench_test.go:10: boom
FAIL
exit status 1
FAIL	example.com/p	0.012s
`,
		"panic": `BenchmarkFoo-2   100  12345 ns/op
panic: runtime error: index out of range [3] with length 3

goroutine 7 [running]:
FAIL	example.com/p	0.010s
`,
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			if err := run([]string{"-o", out}, strings.NewReader(in), io.Discard); err == nil {
				t.Fatal("failed transcript converted without error")
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("failed transcript wrote %s (stat err %v)", out, err)
			}
		})
	}
	var buf strings.Builder
	if err := run(nil, strings.NewReader("BenchmarkFoo-2   100  12345 ns/op\nPASS\nok  \texample.com/p\t0.01s\n"), &buf); err != nil {
		t.Fatalf("passing transcript: %v", err)
	}
	if !strings.Contains(buf.String(), `"BenchmarkFoo"`) {
		t.Fatalf("passing transcript lost its result:\n%s", buf.String())
	}
}
