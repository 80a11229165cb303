package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gptpfta/internal/fta"
)

// fillLeaves gives every leaf field under v a distinct non-zero value, so
// a field the codec drops or mangles shows up as a DeepEqual difference.
func fillLeaves(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		v.Set(reflect.ValueOf(map[string]string{"c41": "v5.10", "c11": "v4.19.1"}))
	default:
		t.Fatalf("fillLeaves: no filler for %s", v.Type())
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	var cfg Config
	fillLeaves(t, reflect.ValueOf(&cfg).Elem(), new(int))
	// The policy is an enum: any value other than FlagExclude reads back
	// as FlagMonitor, so pick the non-default one.
	cfg.FlagPolicy = fta.FlagExclude
	if cfg.WanSync.Drift.MaxAsymNS == 0 || cfg.HoldoverMaxSlewPPB == 0 {
		t.Fatal("fillLeaves left a leaf at zero")
	}

	var b strings.Builder
	if err := cfg.WriteJSON(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadConfigJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(cfg, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v\njson %s", cfg, got, b.String())
	}
}

// TestConfigJSONReadsParentFile pins backward compatibility: a file
// written by `topology -save` before Config carried its own JSON tags
// (no holdover or wanSync keys) still loads to the paper configuration.
func TestConfigJSONReadsParentFile(t *testing.T) {
	got, err := LoadConfigFile("testdata/config-parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := NewConfig(1); !reflect.DeepEqual(want, got) {
		t.Fatalf("loaded config differs from NewConfig(1):\nwant %+v\ngot  %+v", want, got)
	}
}

func TestConfigJSONFlagPolicyNames(t *testing.T) {
	cfg := NewConfig(1)
	cfg.FlagPolicy = 0 // zero value serialises as "monitor"
	var b strings.Builder
	if err := cfg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"flagPolicy": "monitor"`) {
		t.Fatalf("output: %s", b.String())
	}
	if _, err := ReadConfigJSON(strings.NewReader(strings.Replace(b.String(), "monitor", "bogus", 1))); err == nil {
		t.Fatal("bogus flag policy accepted")
	}
}

func TestConfigJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ReadConfigJSON(strings.NewReader(`{"bogusField": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadConfigJSON(strings.NewReader(`{"wanSync": {"bogus": 1}}`)); err == nil {
		t.Fatal("unknown nested field accepted")
	}
	for _, doc := range []string{`{"seed": 1} {"seed": 2}`, `{"seed": 1}}`, `{"seed": 1} x`} {
		if _, err := ReadConfigJSON(strings.NewReader(doc)); err == nil {
			t.Fatalf("trailing data accepted: %s", doc)
		}
	}
	if _, err := ReadConfigJSON(strings.NewReader("{\"seed\": 1}\n\t ")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// FuzzConfigJSON holds the config codec to its contract: every document
// ReadConfigJSON accepts re-encodes through WriteJSON to a document that
// decodes to an equal Config.
func FuzzConfigJSON(f *testing.F) {
	parent, err := os.ReadFile("testdata/config-parent.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add([]byte(`{"flagPolicy": "exclude", "kernels": {"c41": "v5.10"}, "wanSync": {"enabled": true, "drift": {"stepNs": 1.5}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ReadConfigJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := cfg.WriteJSON(&b); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadConfigJSON(&b)
		if err != nil {
			t.Fatalf("re-read: %v\ninput: %s", err, data)
		}
		if !reflect.DeepEqual(cfg, got) {
			t.Fatalf("re-encoded config differs:\nwant %+v\ngot  %+v", cfg, got)
		}
	})
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfg := NewConfig(7)
	if err := cfg.SaveConfigFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadConfigFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Seed != 7 || got.SyncInterval != cfg.SyncInterval {
		t.Fatalf("loaded config differs: %+v", got)
	}
	// A loaded config builds a working system.
	if _, err := NewSystem(got); err != nil {
		t.Fatalf("system from loaded config: %v", err)
	}
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDescribeTopology(t *testing.T) {
	sys, err := NewSystem(NewConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out := sys.DescribeTopology()
	for _, want := range []string{
		"4 nodes", "grandmaster of dom1", "sw4", "measurement VLAN",
		"slave port", "c42", "external port configuration",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology output missing %q:\n%s", want, out)
		}
	}
	for _, donotwant := range []string{"site", "WAN"} {
		if strings.Contains(out, donotwant) {
			t.Fatalf("single-site topology output mentions %q:\n%s", donotwant, out)
		}
	}
}

func TestDescribeTopologyMultiSite(t *testing.T) {
	cfg := ScaleConfig(1, 3, 2, 1, 1)
	cfg.WanSync.Enabled = true
	cfg.WanSync.F = 1
	cfg.WanSync.Drift.Enabled = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := sys.DescribeTopology()
	for _, want := range []string{
		"wide-area fabric: 3 sites",
		"site 0 (gateway sw1)",
		"site 2 (gateway sw5)",
		"WAN uplink to site 1",
		"WAN gateway chain",
		"sw1-sw3 (site 0 <-> site 1)",
		"sw3-sw5 (site 1 <-> site 2)",
		"asymmetry",
		"site-level FTA: enabled, f = 1, tolerable site failures min(f, ⌊(N−1)/2⌋) = 1",
		"delay drift on",
		"site 1 dom2 (GM c41)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-site topology output missing %q:\n%s", want, out)
		}
	}
}
