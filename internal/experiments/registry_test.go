package experiments

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestRegistryCatalogue(t *testing.T) {
	want := []string{
		"attacks", "baseline", "bmca", "bounds", "domains", "dynamic",
		"faultinjection", "flag-policy", "interval", "multiseed", "netchaos",
		"onestep", "recovery", "resilience", "single-domain", "tas", "voting",
		"wansites",
	}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry names = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names() not sorted: %v", got)
	}
	for _, e := range All() {
		if e.Description() == "" {
			t.Fatalf("%s: empty description", e.Name())
		}
		if e.DefaultConfig(7) == nil {
			t.Fatalf("%s: nil default config", e.Name())
		}
	}
	if _, err := Lookup("no-such-study"); err == nil {
		t.Fatal("Lookup invented an experiment")
	}
}

func TestLookupUnknownError(t *testing.T) {
	_, err := Lookup("intervl")
	if err == nil {
		t.Fatal("want error for unknown experiment")
	}
	msg := err.Error()
	if !strings.Contains(msg, `did you mean "interval"?`) {
		t.Fatalf("missing fuzzy suggestion in %q", msg)
	}
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list registered name %q: %q", name, msg)
		}
	}
	// A name nowhere near any registered study gets the listing but no
	// nonsense suggestion.
	_, err = Lookup("zzzzzzzzzzzzzzz")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("suggestion for hopeless name: %v", err)
	}
}

// TestDecodeConfigRejectsBadChaosPlan: an embedded chaos plan gets the same
// static checks chaos.Load applies, at decode time.
func TestDecodeConfigRejectsBadChaosPlan(t *testing.T) {
	for _, name := range []string{"faultinjection", "resilience"} {
		exp, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range []string{
			`{"chaos_plan":{"actions":[]}}`,
			`{"chaos_plan":{"actions":[{"op":"no-such-op"}]}}`,
		} {
			if _, err := exp.DecodeConfig([]byte(raw)); err == nil || !strings.Contains(err.Error(), "chaos") {
				t.Errorf("%s: %s: err = %v, want a chaos plan error", name, raw, err)
			}
		}
		valid := `{"chaos_plan":{"actions":[{"op":"link-down","links":["sw1-sw2"],"at":"1m","duration":"1s"}]}}`
		if _, err := exp.DecodeConfig([]byte(valid)); err != nil {
			t.Errorf("%s: valid plan rejected: %v", name, err)
		}
	}
}

func TestRegistryDispatch(t *testing.T) {
	exp, err := Lookup("bounds")
	if err != nil {
		t.Fatalf("bounds not registered: %v", err)
	}
	res, err := exp.Run(context.Background(), BoundsConfig{Seed: 2, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary through the registry")
	}
	rows := res.Rows()
	if len(rows) < 2 || len(rows[0]) == 0 {
		t.Fatalf("rows contract broken: %v", rows)
	}
}

func TestRegistryWrongConfigType(t *testing.T) {
	exp, _ := Lookup("bounds")
	_, err := exp.Run(context.Background(), 42)
	if err == nil || !strings.Contains(err.Error(), "config is int") {
		t.Fatalf("want config-type error, got %v", err)
	}
}

func TestRegistryPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, _ := Lookup("bounds")
	if _, err := exp.Run(ctx, BoundsConfig{Seed: 1}); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestMeanStdStable pins the two-pass variance fix: the single-pass
// sumSq/n − mean² form loses all significance on these inputs (float64
// squares of ~1e9 drop the ±1 structure entirely) and reported std = 0.
func TestMeanStdStable(t *testing.T) {
	mean, std := meanStd([]float64{1e9, 1e9 + 1, 1e9 + 2})
	if mean != 1e9+1 {
		t.Fatalf("mean = %v", mean)
	}
	want := math.Sqrt(2.0 / 3.0) // population std of {-1, 0, 1}
	if math.Abs(std-want) > 1e-9 {
		t.Fatalf("std = %v, want %v (catastrophic cancellation?)", std, want)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatalf("empty input: %v, %v", m, s)
	}
}

func TestMultiSeedDerivedSeeds(t *testing.T) {
	a := MultiSeedConfig{CampaignSeed: 99, SeedCount: 4}.withDefaults()
	b := MultiSeedConfig{CampaignSeed: 99, SeedCount: 4}.withDefaults()
	if !reflect.DeepEqual(a.Seeds, b.Seeds) {
		t.Fatalf("derived seeds not reproducible: %v vs %v", a.Seeds, b.Seeds)
	}
	seen := map[int64]bool{}
	for _, s := range a.Seeds {
		if seen[s] {
			t.Fatalf("derived seed collision in %v", a.Seeds)
		}
		seen[s] = true
	}
	c := MultiSeedConfig{CampaignSeed: 100, SeedCount: 4}.withDefaults()
	if reflect.DeepEqual(a.Seeds, c.Seeds) {
		t.Fatal("different campaign seeds derived identical run seeds")
	}
}

// TestMultiSeedParallelDeterminism is the API's headline guarantee: the
// aggregated campaign result is byte-identical whether the seeds run
// sequentially or fanned across eight workers.
func TestMultiSeedParallelDeterminism(t *testing.T) {
	run := func(parallel int) *MultiSeedResult {
		res, err := MultiSeedValidation(context.Background(), MultiSeedConfig{
			Seeds:    []int64{5, 6},
			Duration: 6 * time.Minute,
			Parallel: parallel,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Outcomes, par.Outcomes) {
		t.Fatalf("outcomes diverge:\nseq: %+v\npar: %+v", seq.Outcomes, par.Outcomes)
	}
	if seq.Summary() != par.Summary() {
		t.Fatalf("summaries diverge:\n%s\n%s", seq.Summary(), par.Summary())
	}
	if !reflect.DeepEqual(seq.Rows(), par.Rows()) {
		t.Fatal("rows diverge")
	}
}
