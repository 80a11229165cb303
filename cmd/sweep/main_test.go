package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gptpfta/internal/experiments"
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

func init() {
	experiments.RegisterFunc("sweep-test-anomaly", "test-only study reporting one anomaly",
		func(seed int64) anomalyConfig { return anomalyConfig{Seed: seed} },
		func(context.Context, anomalyConfig) (experiments.Result, error) { return anomalyResult{}, nil })
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
