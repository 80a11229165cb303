package main

import (
	"os"
	"path/filepath"
	"testing"

	"gptpfta/internal/measure"
)

func TestRunReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	samples := []measure.Sample{
		{Seq: 1, AtSec: 1, PiStarNS: 300, Replies: 6},
		{Seq: 2, AtSec: 2, PiStarNS: 200, Replies: 6},
		{Seq: 3, AtSec: 125, PiStarNS: 400, Replies: 6},
	}
	if err := measure.WriteSamplesCSV(f, samples); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-samples", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunReplayErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -samples accepted")
	}
	if err := run([]string{"-samples", "/no/such/file.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-samples", empty}); err == nil {
		t.Fatal("empty file accepted")
	}
	// A NaN Π* counts as no violation, so replay must refuse it, not pass it.
	nan := filepath.Join(t.TempDir(), "nan.csv")
	if err := os.WriteFile(nan, []byte("seq,at_sec,pi_star_ns,replies\n1,1.0,NaN,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-samples", nan}); err == nil {
		t.Fatal("NaN pi_star_ns accepted")
	}
}
