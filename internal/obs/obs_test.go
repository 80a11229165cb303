package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from many goroutines; run under -race via `make verify`. Totals must be
// exact — atomic updates may interleave but never lose increments.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 10000

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			// Resolve handles concurrently too: registration must be
			// race-free and idempotent.
			c := reg.Counter("runs_total")
			g := reg.Gauge("last_value", L("worker", "shared"))
			h := reg.Histogram("wall_ns", []float64{10, 100, 1000})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i % 2000))
			}
		}()
	}
	wg.Wait()

	if got := reg.Counter("runs_total").Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
	h := reg.Histogram("wall_ns", []float64{10, 100, 1000})
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram lost observations: got %d want %d", got, workers*perWorker)
	}
	snap := h.snapshot()
	var bucketSum uint64
	for _, c := range snap.Counts {
		bucketSum += c
	}
	if bucketSum != snap.Count {
		t.Fatalf("bucket counts (%d) disagree with total (%d)", bucketSum, snap.Count)
	}
	if snap.Min != 0 || snap.Max != 1999 {
		t.Fatalf("min/max wrong: got [%v, %v] want [0, 1999]", snap.Min, snap.Max)
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: a value equal to a
// bucket's upper bound lands in that bucket, the next representable value
// above it in the following one, and values past the last bound overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("b", []float64{0, 10, 100})

	h.Observe(math.Inf(-1)) // far below: first bucket
	h.Observe(-5)           // <= 0
	h.Observe(0)            // boundary: still first bucket
	h.Observe(math.Nextafter(0, 1))
	h.Observe(10) // boundary: second bucket
	h.Observe(math.Nextafter(10, 11))
	h.Observe(100)           // boundary: third bucket
	h.Observe(100.000000001) // just past: overflow
	h.Observe(math.MaxFloat64)

	want := []uint64{3, 2, 2, 2}
	snap := h.snapshot()
	if !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("bucket counts: got %v want %v", snap.Counts, want)
	}
	if snap.Count != 9 {
		t.Fatalf("count: got %d want 9", snap.Count)
	}
	if snap.Min != math.Inf(-1) || snap.Max != math.MaxFloat64 {
		t.Fatalf("min/max: got [%v, %v]", snap.Min, snap.Max)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty", []float64{1})
	snap := h.snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", snap)
	}
	if snap.Mean() != 0 {
		t.Fatalf("empty mean: got %v", snap.Mean())
	}
}

// TestNilSafety: a nil registry and nil handles must be inert, so components
// can instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", []float64{1}).Observe(2)
	reg.GaugeFunc("f", func() float64 { return 1 })
	if got := reg.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot: got %v", got)
	}
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

// TestRegistrationIdempotent: the same (name, labels) resolves to the same
// handle regardless of label order; different label values are distinct.
func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x", L("vm", "c11"), L("domain", "1"))
	b := reg.Counter("x", L("domain", "1"), L("vm", "c11"))
	if a != b {
		t.Fatal("label order split one series into two handles")
	}
	c := reg.Counter("x", L("vm", "c11"), L("domain", "2"))
	if a == c {
		t.Fatal("distinct label values collapsed into one series")
	}
	a.Inc()
	if b.Value() != 1 || c.Value() != 0 {
		t.Fatalf("handle aliasing wrong: b=%d c=%d", b.Value(), c.Value())
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("dup")
}

// TestSnapshotSortedAndStable: Snapshot order is by name then labels,
// independent of registration order, so exports diff cleanly.
func TestSnapshotSortedAndStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz").Inc()
	reg.Counter("aa", L("vm", "c21")).Add(2)
	reg.Counter("aa", L("vm", "c11")).Add(1)
	reg.GaugeFunc("mm", func() float64 { return 42 })

	snap := reg.Snapshot()
	keys := make([]string, len(snap))
	for i, m := range snap {
		keys[i] = m.Key()
	}
	want := []string{"aa{vm=c11}", "aa{vm=c21}", "mm", "zz"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("snapshot order: got %v want %v", keys, want)
	}
	if snap[2].Value != 42 {
		t.Fatalf("gauge func not sampled: %+v", snap[2])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("frames", L("node", "sw1")).Add(7)
	reg.Histogram("offset_ns", []float64{-10, 0, 10}, L("domain", "1")).Observe(-3)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, "fig3a", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Run != "fig3a" {
			t.Fatalf("run tag lost: %+v", r)
		}
	}
	if recs[0].Name != "frames" || recs[0].Value != 7 {
		t.Fatalf("counter record wrong: %+v", recs[0])
	}
	h := recs[1].Histogram
	if h == nil || h.Count != 1 || h.Counts[1] != 1 || h.Min != -3 {
		t.Fatalf("histogram record wrong: %+v", h)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"run":"x"}` + "\n")); err == nil {
		t.Fatal("nameless metric accepted")
	}
	recs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: recs=%v err=%v", recs, err)
	}
}

func TestAddLabel(t *testing.T) {
	ms := []Metric{{Name: "a", Type: "counter", Value: 1, Labels: map[string]string{"vm": "c11"}}}
	out := AddLabel(ms, "variant", "ours")
	if out[0].Labels["variant"] != "ours" || out[0].Labels["vm"] != "c11" {
		t.Fatalf("labels wrong: %v", out[0].Labels)
	}
	if _, leaked := ms[0].Labels["variant"]; leaked {
		t.Fatal("AddLabel mutated its input")
	}
}

func TestWriteJSONLFileKeepsTagOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("frames").Add(3)
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	if err := WriteJSONLFile(path, Tagged{"b", reg.Snapshot()}, Tagged{"a", reg.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Run != "b" || recs[1].Run != "a" || recs[1].Value != 3 {
		t.Fatalf("file records: %+v", recs)
	}
}
