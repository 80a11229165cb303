package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gptpfta/internal/obs"
)

// Result is the contract every experiment result satisfies, so generic
// tooling (cmd/sweep's printing and CSV emission, the runner's campaign
// aggregation) handles any study without per-type special cases.
type Result interface {
	// Summary renders the experiment's one-line verdict.
	Summary() string
	// Rows renders the result as a table: the first row is the header, every
	// further row one record. The shape is stable per experiment.
	Rows() [][]string
}

// ObsCarrier is the optional interface a Result implements when it carries
// an observability snapshot of the simulation that produced it. The
// command-line tools use it to serve their -metrics flag without per-type
// special cases.
type ObsCarrier interface {
	// ObsMetrics returns the metrics snapshot taken at experiment end.
	ObsMetrics() []obs.Metric
}

// Figurer is the optional interface a Result implements when it reproduces
// one of the paper's figures. cmd/sweep prints the figure after the
// summary, in place of the generic Rows() table.
type Figurer interface {
	// Figure renders the figure's text blocks (bound parameters, series,
	// distribution, event window) with the paper's reference values.
	Figure() string
}

// ObsSnapshot is the embeddable ObsCarrier implementation: an experiment
// fills Obs with its system registry's snapshot just before returning.
// Golden digests hash only Rows() and sample series, so carrying the
// snapshot cannot perturb determinism checks.
type ObsSnapshot struct {
	Obs []obs.Metric
}

// ObsMetrics implements ObsCarrier.
func (s *ObsSnapshot) ObsMetrics() []obs.Metric { return s.Obs }

// Validator is the contract every study's config struct satisfies: a
// structural sanity check run on every decode and on every Run dispatch, so
// an invalid config is rejected with a message instead of silently clamped
// or run into a panic. Registration enforces the contract — RegisterFunc
// panics when a config type does not implement it.
type Validator interface {
	Validate() error
}

// Experiment is a named, registry-dispatchable study. Implementations wrap
// the typed entrypoints (CyberResilience, FaultInjection, ...) so that the
// command-line tools, the job server and the runner dispatch by name
// instead of hand-wired switch blocks.
//
// Configs are wire-safe: every config struct is a JSON-round-trippable
// value (json.Marshal(DefaultConfig(s)) decodes back to an equal config via
// DecodeConfig), so the same struct drives CLI flags, HTTP job payloads and
// golden-digest tests. Runtime-only handles (metrics registries, snapshot
// caches) are tagged `json:"-"` and re-attached after decoding.
type Experiment interface {
	// Name is the registry key ("resilience", "interval", ...).
	Name() string
	// Description is a one-line synopsis for tool listings.
	Description() string
	// DefaultConfig returns the experiment's config struct with the given
	// master seed and all other fields at their withDefaults() values'
	// zero triggers.
	DefaultConfig(seed int64) any
	// DecodeConfig strictly decodes a JSON config (unknown fields are
	// errors) over the experiment's zero-seed defaults and validates it.
	// An empty or "null" raw returns the defaults unchanged. Use
	// SeededConfig to overlay raw JSON onto seeded defaults instead.
	DecodeConfig(raw json.RawMessage) (any, error)
	// Run executes the experiment. cfg must be the experiment's config type
	// (as returned by DefaultConfig or DecodeConfig) and is re-validated
	// before dispatch; the context cancels multi-run campaigns between
	// runs.
	Run(ctx context.Context, cfg any) (Result, error)
}

// funcExperiment adapts a typed entrypoint to the Experiment interface.
type funcExperiment[C any] struct {
	name, desc string
	defaults   func(seed int64) C
	run        func(ctx context.Context, cfg C) (Result, error)
}

func (e *funcExperiment[C]) Name() string                 { return e.name }
func (e *funcExperiment[C]) Description() string          { return e.desc }
func (e *funcExperiment[C]) DefaultConfig(seed int64) any { return e.defaults(seed) }

func (e *funcExperiment[C]) DecodeConfig(raw json.RawMessage) (any, error) {
	cfg := e.defaults(0)
	if len(raw) > 0 && string(raw) != "null" {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("experiments: %s: decode config: %w", e.name, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("experiments: %s: decode config: trailing data after JSON object", e.name)
		}
	}
	if err := validate(cfg); err != nil {
		return nil, fmt.Errorf("experiments: %s: invalid config: %w", e.name, err)
	}
	return cfg, nil
}

func (e *funcExperiment[C]) Run(ctx context.Context, cfg any) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, ok := cfg.(C)
	if !ok {
		return nil, fmt.Errorf("experiments: %s: config is %T, want %T", e.name, cfg, *new(C))
	}
	if err := validate(c); err != nil {
		return nil, fmt.Errorf("experiments: %s: invalid config: %w", e.name, err)
	}
	return e.run(ctx, c)
}

// validate runs a config's Validator when it implements one.
func validate(cfg any) error {
	if v, ok := cfg.(Validator); ok {
		return v.Validate()
	}
	return nil
}

// SeededConfig decodes raw over the experiment's defaults for seed: the
// seeded default config is marshalled, raw is overlaid as a shallow JSON
// object merge (raw's keys win), and the merged object goes through the
// experiment's strict DecodeConfig. This is the one config path shared by
// the CLIs and the job server — a request that names only the fields it
// cares about inherits everything else from the seeded defaults.
func SeededConfig(e Experiment, seed int64, raw json.RawMessage) (any, error) {
	merged, err := overlayJSON(e, e.DefaultConfig(seed), raw)
	if err != nil {
		return nil, err
	}
	return e.DecodeConfig(merged)
}

// MergeConfig overlays raw onto an already-built typed config and re-decodes
// the merged object through the experiment's strict decode path. Runtime-only
// fields (`json:"-"`: metrics registries, snapshot caches) do not survive the
// re-encoding — attach them after merging (see EnableWarmStart).
func MergeConfig(e Experiment, base any, raw json.RawMessage) (any, error) {
	merged, err := overlayJSON(e, base, raw)
	if err != nil {
		return nil, err
	}
	return e.DecodeConfig(merged)
}

// overlayJSON shallow-merges raw over the JSON encoding of base.
func overlayJSON(e Experiment, base any, raw json.RawMessage) (json.RawMessage, error) {
	enc, err := json.Marshal(base)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: encode config: %w", e.Name(), err)
	}
	if len(raw) == 0 || string(raw) == "null" {
		return enc, nil
	}
	var dst map[string]json.RawMessage
	if err := json.Unmarshal(enc, &dst); err != nil {
		return nil, fmt.Errorf("experiments: %s: config is not a JSON object: %w", e.Name(), err)
	}
	var src map[string]json.RawMessage
	if err := json.Unmarshal(raw, &src); err != nil {
		return nil, fmt.Errorf("experiments: %s: config overlay is not a JSON object: %w", e.Name(), err)
	}
	for k, v := range src {
		dst[k] = v
	}
	merged, err := json.Marshal(dst)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: merge config: %w", e.Name(), err)
	}
	return merged, nil
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Experiment{}
)

// Register adds an experiment to the package registry. It panics on a
// duplicate name: names are API.
func Register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.Name()]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name()))
	}
	registry[e.Name()] = e
}

// RegisterFunc registers a typed entrypoint under the given name. The config
// type must implement Validator — the registration panics otherwise, so the
// "every study config validates" contract is enforced at init time, not
// discovered on the first bad request.
func RegisterFunc[C any](name, desc string, defaults func(seed int64) C,
	run func(ctx context.Context, cfg C) (Result, error)) {
	var zero C
	if _, ok := any(zero).(Validator); !ok {
		panic(fmt.Sprintf("experiments: config type %T of %q does not implement Validate() error", zero, name))
	}
	Register(&funcExperiment[C]{name: name, desc: desc, defaults: defaults, run: run})
}

// Lookup returns the named experiment. An unknown name yields an error that
// lists every registered name and, when the name is a near miss for one of
// them, a "did you mean" suggestion — the same message the CLIs print and
// the job server returns in its 404 body.
func Lookup(name string) (Experiment, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if ok {
		return e, nil
	}
	names := Names()
	msg := fmt.Sprintf("experiments: unknown experiment %q", name)
	if suggestion, ok := closestName(name, names); ok {
		msg += fmt.Sprintf(" (did you mean %q?)", suggestion)
	}
	return nil, fmt.Errorf("%s; registered: %s", msg, strings.Join(names, ", "))
}

// closestName returns the registered name nearest to name when it is close
// enough to be a plausible typo: edit distance at most 2, or at most half
// the shorter length for very short names.
func closestName(name string, names []string) (string, bool) {
	best, bestDist := "", -1
	for _, cand := range names {
		d := editDistance(strings.ToLower(name), cand)
		if bestDist < 0 || d < bestDist {
			best, bestDist = cand, d
		}
	}
	if bestDist < 0 {
		return "", false
	}
	limit := 2
	if n := min(len(name), len(best)) / 2; n < limit {
		limit = n + 1
	}
	return best, bestDist <= limit
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// All returns every registered experiment, sorted by name.
func All() []Experiment {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns every registered experiment name, sorted.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name()
	}
	return names
}
