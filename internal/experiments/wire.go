package experiments

import (
	"reflect"

	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
)

// ResultSchemaVersion is the wire schema of WireResult. It is bumped when
// the envelope's shape changes incompatibly; additive, optional fields do
// not bump it. Clients should reject envelopes with a schema they do not
// know.
const ResultSchemaVersion = 1

// WireResult is the stable wire form of any experiment Result: a versioned
// envelope around the generic surface every study exposes — the one-line
// Summary, the Rows table (first row is the header; golden digests hash
// exactly these rows, so the wire form and the determinism gate can never
// disagree) and, when the result carries one, the obs metrics snapshot.
// The same envelope drives the job server's result endpoint, CSV emission
// and cross-process result archival.
type WireResult struct {
	// Schema is the envelope version (ResultSchemaVersion).
	Schema int `json:"schema"`
	// Experiment is the registry name of the study that produced the
	// result.
	Experiment string `json:"experiment"`
	// Summary is the result's one-line verdict.
	Summary string `json:"summary"`
	// Rows is the result's generic table; Rows[0] is the header.
	Rows [][]string `json:"rows"`
	// Obs is the metrics snapshot taken at experiment end, when the result
	// carries one.
	Obs []obs.Metric `json:"obs,omitempty"`
}

// Wire wraps a Result in its versioned wire envelope.
func Wire(experiment string, r Result) WireResult {
	w := WireResult{
		Schema:     ResultSchemaVersion,
		Experiment: experiment,
		Summary:    r.Summary(),
		Rows:       r.Rows(),
	}
	if c, ok := r.(ObsCarrier); ok {
		w.Obs = c.ObsMetrics()
	}
	return w
}

// EnableWarmStart attaches the campaign metrics registry and the shared
// snapshot cache to each of the Metrics and Snapshots fields a config
// declares; other configs pass through unchanged. The boolean reports
// whether the config is warm-capable, that is, declares a Snapshots field
// a runner pool forks through. Whether a study forks is decided by its
// points, not by a setting (see runPoints). Because `json:"-"` fields do
// not survive the wire, callers that decode a config from JSON re-attach
// the runtime handles here, after decoding.
func EnableWarmStart(cfg any, reg *obs.Registry, snaps runner.SnapshotCache) (any, bool) {
	v := reflect.ValueOf(cfg)
	warm := v.Kind() == reflect.Struct && v.FieldByName("Snapshots").IsValid()
	return SetFields(cfg, map[string]any{"Metrics": reg, "Snapshots": snaps}), warm
}

// SetFields returns a copy of the config struct cfg with each named field it
// declares set to the given value. Names the config does not declare, and
// values not assignable to the field, are skipped; a nil value zeroes the
// field. It is how the command-line tools apply a run knob (-parallel, a
// campaign metrics registry) to whichever registered configs have it,
// without a per-type list.
func SetFields(cfg any, fields map[string]any) any {
	v := reflect.ValueOf(cfg)
	if v.Kind() != reflect.Struct {
		return cfg
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	for name, val := range fields {
		f := c.FieldByName(name)
		if !f.IsValid() || !f.CanSet() {
			continue
		}
		if val == nil {
			f.Set(reflect.Zero(f.Type()))
		} else if rv := reflect.ValueOf(val); rv.Type().AssignableTo(f.Type()) {
			f.Set(rv)
		}
	}
	return c.Interface()
}
