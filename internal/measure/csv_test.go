package measure

import (
	"strings"
	"testing"
)

func TestSamplesCSVRoundTrip(t *testing.T) {
	in := []Sample{
		{Seq: 1, AtSec: 1.5, PiStarNS: 322.4, Replies: 6},
		{Seq: 2, AtSec: 2.5, PiStarNS: 10080, Replies: 5},
	}
	var b strings.Builder
	if err := WriteSamplesCSV(&b, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ParseSamplesCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost rows: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || out[i].Replies != in[i].Replies {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
		if out[i].PiStarNS != in[i].PiStarNS {
			t.Fatalf("row %d precision mismatch: %v vs %v", i, out[i].PiStarNS, in[i].PiStarNS)
		}
	}
}

func TestParseSamplesCSVErrors(t *testing.T) {
	if _, err := ParseSamplesCSV(strings.NewReader("seq,at_sec,pi_star_ns,replies\nx,1,2,3\n")); err == nil {
		t.Fatal("bad seq accepted")
	}
	if _, err := ParseSamplesCSV(strings.NewReader("seq,at_sec,pi_star_ns,replies\n1,x,2,3\n")); err == nil {
		t.Fatal("bad at_sec accepted")
	}
	// Values the collector never writes: a NaN Π* would read as no violation.
	for _, row := range []string{
		"1,NaN,2,3", "1,+Inf,2,3", "1,-Inf,2,3",
		"1,1.0,NaN,4", "1,1.0,+Inf,4", "1,1.0,-Inf,4", "1,1.0,-0.5,4",
		"1,1.0,2,-1",
	} {
		if _, err := ParseSamplesCSV(strings.NewReader("seq,at_sec,pi_star_ns,replies\n" + row + "\n")); err == nil {
			t.Errorf("row %q accepted", row)
		}
	}
	out, err := ParseSamplesCSV(strings.NewReader(""))
	if err != nil || out != nil {
		t.Fatalf("empty input: %v/%v", out, err)
	}
}

func TestWriteWindowsCSV(t *testing.T) {
	var b strings.Builder
	err := WriteWindowsCSV(&b, []Window{{StartSec: 0, MinNS: 1, AvgNS: 2, MaxNS: 3, Count: 4}})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(b.String(), "start_sec") || !strings.Contains(b.String(), "4") {
		t.Fatalf("output: %s", b.String())
	}
}

func TestWriteHistogramCSV(t *testing.T) {
	var b strings.Builder
	h := Histogram{BucketWidthNS: 50, Counts: []int{3, 1}, Overflow: 2}
	if err := WriteHistogramCSV(&b, h); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "bucket_lo_ns") || !strings.Contains(out, "overflow,2") {
		t.Fatalf("output: %s", out)
	}
}
