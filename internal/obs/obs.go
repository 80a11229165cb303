// Package obs is the repository's unified observability layer: a
// low-allocation metrics registry shared by the simulation substrates (event
// kernel, network, gPTP/FTA, servo, hypervisor) and the experiment tooling
// (runner, CLIs). Handles — Counter, Gauge, Histogram — are resolved once at
// registration, including their full label set; every subsequent update is a
// plain atomic operation with no map lookup, no label formatting and no
// allocation, so instrumentation is safe to leave enabled on the hot paths
// the benchmarks gate on.
//
// Each core.System owns its own Registry, so the runner's parallel campaigns
// never mix metrics between concurrent simulations; the registry itself is
// nevertheless safe for concurrent use (the runner's pool updates its own
// campaign metrics from several workers).
//
// A nil *Registry and nil handles are valid and inert: components instrument
// themselves unconditionally and callers that do not care simply pass nil.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the series types held by a registry.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing series handle. All methods are
// nil-safe no-ops so instrumented code never branches on "metrics enabled".
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value series handle.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution handle. An observation lands in
// the first bucket whose upper bound is >= the value ("le" semantics); values
// beyond the last bound land in an implicit overflow bucket. Counts are
// per-bucket (not cumulative). Sum, min and max are tracked exactly.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket

	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.sumBits.Store(math.Float64bits(0))
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search over the (small, sorted) bounds; allocation-free.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot renders the histogram's current state.
func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		UpperBounds: append([]float64(nil), h.bounds...),
		Counts:      make([]uint64, len(h.counts)),
		Count:       h.count.Load(),
		Sum:         math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	return s
}

// series is one registered metric.
type series struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry holds a set of metric series. The zero value is not usable;
// create one with NewRegistry. A nil *Registry is inert: registration
// returns nil handles and Snapshot returns nothing.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	series []*series // registration order; Snapshot sorts a copy
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// seriesKey canonicalises name+labels. Labels are sorted by key so the
// registration order of labels never splits a series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register resolves-or-creates the series for (name, labels). It panics on a
// kind conflict: two components registering the same series as different
// types is a programming error, not a runtime condition.
func (r *Registry) register(name string, kind metricKind, labels []Label) *series {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %q re-registered as %s (was %s)", key, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	}
	r.byKey[key] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or resolves) a counter series and returns its handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, kindCounter, labels).counter
}

// Gauge registers (or resolves) a gauge series and returns its handle.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, kindGauge, labels).gauge
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// snapshot time — zero hot-path cost for components that already maintain
// their own counters (the event kernel, bridges, links). fn must be safe to
// call whenever Snapshot is called; for per-simulation registries that is
// after the run completes.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.register(name, kindGaugeFunc, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or resolves) a fixed-bucket histogram. bounds must be
// sorted ascending; an observation v lands in the first bucket with
// v <= bound, or the overflow bucket past the last bound. Re-registration
// returns the existing handle; the bounds of the first registration win.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, kindHistogram, labels)
	r.mu.Lock()
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	h := s.hist
	r.mu.Unlock()
	return h
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	// UpperBounds are the bucket upper bounds ("le" semantics).
	UpperBounds []float64 `json:"upper_bounds"`
	// Counts has len(UpperBounds)+1 entries; the last is the overflow
	// bucket. Counts are per-bucket, not cumulative.
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
}

// Mean reports the arithmetic mean of all observations, or 0 when empty.
func (s *HistogramSnapshot) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Metric is one series' state at snapshot time.
type Metric struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     float64            `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Key canonicalises the metric's identity (name plus sorted labels); the
// snapshot is ordered by it.
func (m Metric) Key() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(m.Name)
	for _, k := range keys {
		b.WriteByte('{')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m.Labels[k])
		b.WriteByte('}')
	}
	return b.String()
}

// Snapshot renders every series, sorted by name then labels, so snapshots of
// the same run are byte-stable.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	series := append([]*series(nil), r.series...)
	r.mu.Unlock()

	out := make([]Metric, 0, len(series))
	for _, s := range series {
		m := Metric{Name: s.name, Type: s.kind.String()}
		if len(s.labels) > 0 {
			m.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch s.kind {
		case kindCounter:
			m.Value = float64(s.counter.Value())
		case kindGauge:
			m.Value = s.gauge.Value()
		case kindGaugeFunc:
			if s.fn != nil {
				m.Value = s.fn()
			}
		case kindHistogram:
			m.Histogram = s.hist.snapshot()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// AddLabel returns a copy of ms with one more label on every metric — used
// when merging snapshots from several systems into one result (e.g. the
// ablations' ours-vs-variant pairs).
func AddLabel(ms []Metric, key, value string) []Metric {
	out := make([]Metric, len(ms))
	for i, m := range ms {
		labels := make(map[string]string, len(m.Labels)+1)
		for k, v := range m.Labels {
			labels[k] = v
		}
		labels[key] = value
		m.Labels = labels
		out[i] = m
	}
	return out
}
