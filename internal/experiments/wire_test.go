package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// TestConfigRoundTrip is the wire contract of every registered experiment:
// the default config marshals to JSON and decodes back, through the strict
// DecodeConfig path, to an equal value. This is what lets one JSON payload
// drive the CLIs and POST /v1/jobs interchangeably.
func TestConfigRoundTrip(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			cfg := e.DefaultConfig(7)
			raw, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal default config: %v", err)
			}
			back, err := e.DecodeConfig(raw)
			if err != nil {
				t.Fatalf("decode %s: %v", raw, err)
			}
			if !reflect.DeepEqual(cfg, back) {
				t.Fatalf("round trip drifted:\n  before: %#v\n  after:  %#v", cfg, back)
			}
		})
	}
}

// TestDecodeConfigNil checks that an absent config body yields the
// zero-seed defaults.
func TestDecodeConfigNil(t *testing.T) {
	for _, e := range All() {
		cfg, err := e.DecodeConfig(nil)
		if err != nil {
			t.Fatalf("%s: decode nil: %v", e.Name(), err)
		}
		if !reflect.DeepEqual(cfg, e.DefaultConfig(0)) {
			t.Fatalf("%s: nil config is not the zero-seed default", e.Name())
		}
	}
}

// TestDecodeConfigUnknownField checks the strict decode: a typo'd key is an
// error for every experiment, not a silently ignored no-op. "shards" is
// one: it was the shard count of the deleted sharded kernel.
func TestDecodeConfigUnknownField(t *testing.T) {
	for _, e := range All() {
		t.Run(e.Name(), func(t *testing.T) {
			for _, key := range []string{"no_such_knob", "shards"} {
				_, err := e.DecodeConfig(json.RawMessage(`{"` + key + `": 2}`))
				if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
					t.Errorf("%s: %v, want an unknown-field error", key, err)
				}
			}
		})
	}
}

// TestDecodeConfigValidation checks that DecodeConfig runs the config's
// Validate: a structurally well-formed but semantically invalid payload is
// rejected at decode time. A domain count above the paper mesh's four
// nodes would leave a domain without a grandmaster.
func TestDecodeConfigValidation(t *testing.T) {
	cases := []struct{ name, raw string }{
		{"bounds", `{"duration": -1}`},
		{"interval", `{"intervals": [0]}`},
		{"domains", `{"counts": [1]}`},
		{"domains", `{"counts": [5]}`},
		{"domains", `{"counts": [1000000000]}`},
		{"netchaos", `{"burst_bad_loss": [1.5]}`},
	}
	for _, tc := range cases {
		name, raw := tc.name, tc.raw
		e, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := e.DecodeConfig(json.RawMessage(raw)); err == nil {
			t.Fatalf("%s: invalid config %s accepted", name, raw)
		}
	}
}

// TestSeededConfigOverlay checks the server's submission path: the overlay
// wins over the seeded default field-by-field, and the untouched fields keep
// the seeded defaults.
func TestSeededConfigOverlay(t *testing.T) {
	e, err := Lookup("bounds")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SeededConfig(e, 42, json.RawMessage(`{"duration": 180000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := cfg.(BoundsConfig)
	if !ok {
		t.Fatalf("config type %T", cfg)
	}
	if bc.Seed != 42 {
		t.Fatalf("seed not applied: %+v", bc)
	}
	if bc.Duration != 3*time.Minute {
		t.Fatalf("overlay not applied: %+v", bc)
	}
	// An explicit seed inside the overlay wins over the top-level seed.
	cfg, err = SeededConfig(e, 42, json.RawMessage(`{"seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.(BoundsConfig).Seed != 7 {
		t.Fatalf("explicit config seed lost: %+v", cfg)
	}
}

// TestWireResultEnvelope pins the versioned result envelope: schema 1, the
// registry name, the summary and the generic rows — the stable surface the
// job server's result endpoint serves.
func TestWireResultEnvelope(t *testing.T) {
	e, err := Lookup("bounds")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), BoundsConfig{Seed: 2, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	w := Wire("bounds", res)
	if w.Schema != ResultSchemaVersion || ResultSchemaVersion != 1 {
		t.Fatalf("schema = %d", w.Schema)
	}
	if w.Experiment != "bounds" || w.Summary == "" || len(w.Rows) < 2 {
		t.Fatalf("envelope incomplete: %+v", w)
	}
	if len(w.Obs) == 0 {
		t.Fatal("bounds result carries obs metrics, envelope lost them")
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema":1`, `"experiment":"bounds"`, `"summary":`, `"rows":`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("wire JSON missing %s: %s", key, raw)
		}
	}
}

// TestShardsKnobWire pins what is left of the deleted shard knob on the
// wire: a core config file that still carries {"shards": N}, as every file
// saved before the sharded kernel went does, loads with the key dropped and
// saves without it, and no study config accepts it, so a payload still
// carrying it fails closed instead of being silently ignored.
func TestShardsKnobWire(t *testing.T) {
	cfg, err := core.ReadConfigJSON(strings.NewReader(`{"shards": 4}`))
	if err != nil {
		t.Fatalf("core decode shards=4: %v", err)
	}
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "shards") {
		t.Errorf("core config saved with a shards key:\n%s", buf.String())
	}
	if _, err := core.ReadConfigJSON(strings.NewReader(`{"shards": "4"}`)); err == nil {
		t.Error("core decode accepted a non-integer shard count")
	}

	formerlyShardAware := []string{
		"bounds", "resilience", "faultinjection", "baseline", "single-domain",
		"flag-policy", "voting", "recovery", "interval", "domains",
		"netchaos", "multiseed", "attacks", "wansites",
	}
	for _, name := range formerlyShardAware {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(e.DefaultConfig(1)).FieldByName("Shards").IsValid() {
			t.Errorf("%s: study config still has a Shards field", name)
		}
		_, err = e.DecodeConfig(json.RawMessage(`{"shards": 4}`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
			t.Errorf("%s: decode shards=4: %v, want an unknown-field error", name, err)
		}
	}
}

// fakeCache is a runner.SnapshotCache that is never used, only compared by
// identity.
type fakeCache struct{}

func (*fakeCache) Acquire(context.Context, string, func(context.Context) (any, error)) (any, bool, func(), error) {
	return nil, false, func() {}, nil
}

// TestEnableWarmStartEveryWarmConfig checks EnableWarmStart against the
// registry itself rather than a hand-kept list: every registered config that
// declares a Snapshots field is warm-capable and gets Metrics and Snapshots
// attached; every other config passes through unchanged.
func TestEnableWarmStartEveryWarmConfig(t *testing.T) {
	reg, snaps := obs.NewRegistry(), &fakeCache{}
	for _, e := range All() {
		def := e.DefaultConfig(1)
		hasCache := reflect.ValueOf(def).FieldByName("Snapshots").IsValid()
		cfg, warm := EnableWarmStart(def, reg, snaps)
		if warm != hasCache {
			t.Errorf("%s: EnableWarmStart = %v, config declares Snapshots: %v", e.Name(), warm, hasCache)
			continue
		}
		if !warm {
			if !reflect.DeepEqual(cfg, def) {
				t.Errorf("%s: config without a snapshot cache was modified", e.Name())
			}
			continue
		}
		v := reflect.ValueOf(cfg)
		if m, ok := v.FieldByName("Metrics").Interface().(*obs.Registry); !ok || m != reg {
			t.Errorf("%s: Metrics not attached", e.Name())
		}
		if c, ok := v.FieldByName("Snapshots").Interface().(runner.SnapshotCache); !ok || c != runner.SnapshotCache(snaps) {
			t.Errorf("%s: Snapshots not attached", e.Name())
		}
	}
}
