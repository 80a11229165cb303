package measure

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Stats summarises a precision series the way Fig. 4b's caption does.
type Stats struct {
	Count  int
	MeanNS float64
	StdNS  float64
	MinNS  float64
	MaxNS  float64
	// MaxAtSec is the time of the maximum (the red-circled spike).
	MaxAtSec float64
}

// String formats like the paper: "avg = 322ns, std = 421ns, ...".
func (s Stats) String() string {
	return fmt.Sprintf("avg = %.0fns, std = %.0fns, min = %.0fns, max = %.0fns (n=%d)",
		s.MeanNS, s.StdNS, s.MinNS, s.MaxNS, s.Count)
}

// ComputeStats summarises a sample series.
func ComputeStats(samples []Sample) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(samples), MinNS: math.Inf(1), MaxNS: math.Inf(-1)}
	var sum float64
	for _, s := range samples {
		sum += s.PiStarNS
		if s.PiStarNS < st.MinNS {
			st.MinNS = s.PiStarNS
		}
		if s.PiStarNS > st.MaxNS {
			st.MaxNS = s.PiStarNS
			st.MaxAtSec = s.AtSec
		}
	}
	st.MeanNS = sum / float64(len(samples))
	var sq float64
	for _, s := range samples {
		d := s.PiStarNS - st.MeanNS
		sq += d * d
	}
	st.StdNS = math.Sqrt(sq / float64(len(samples)))
	return st
}

// Window is one aggregation interval of the precision series (the paper
// plots 120 s windows with average, minimum and maximum).
type Window struct {
	StartSec float64
	MinNS    float64
	AvgNS    float64
	MaxNS    float64
	Count    int
}

// Aggregate buckets samples into fixed windows of the given width.
func Aggregate(samples []Sample, width time.Duration) []Window {
	if len(samples) == 0 || width <= 0 {
		return nil
	}
	w := width.Seconds()
	byBucket := make(map[int64][]float64)
	for _, s := range samples {
		b := int64(s.AtSec / w)
		byBucket[b] = append(byBucket[b], s.PiStarNS)
	}
	buckets := make([]int64, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	out := make([]Window, 0, len(buckets))
	for _, b := range buckets {
		vals := byBucket[b]
		win := Window{StartSec: float64(b) * w, MinNS: math.Inf(1), MaxNS: math.Inf(-1), Count: len(vals)}
		var sum float64
		for _, v := range vals {
			sum += v
			if v < win.MinNS {
				win.MinNS = v
			}
			if v > win.MaxNS {
				win.MaxNS = v
			}
		}
		win.AvgNS = sum / float64(len(vals))
		out = append(out, win)
	}
	return out
}

// Histogram is the distribution of per-second precision values (Fig. 4b).
type Histogram struct {
	BucketWidthNS float64
	// Counts[i] covers [i·width, (i+1)·width).
	Counts []int
	// Overflow counts samples beyond the last bucket.
	Overflow int
}

// ComputeHistogram builds a fixed-width histogram up to limitNS.
func ComputeHistogram(samples []Sample, bucketWidthNS, limitNS float64) Histogram {
	if bucketWidthNS <= 0 || limitNS <= 0 {
		return Histogram{}
	}
	n := int(limitNS / bucketWidthNS)
	h := Histogram{BucketWidthNS: bucketWidthNS, Counts: make([]int, n)}
	for _, s := range samples {
		i := int(s.PiStarNS / bucketWidthNS)
		if i < 0 {
			i = 0
		}
		if i >= n {
			h.Overflow++
			continue
		}
		h.Counts[i]++
	}
	return h
}

// Quantile returns the q-quantile (0..1) of the precision series.
func Quantile(samples []Sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.PiStarNS
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	idx := q * float64(len(vals)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	frac := idx - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}

// ViolationCount reports how many samples exceed a bound (Π or Π+γ).
func ViolationCount(samples []Sample, boundNS float64) int {
	n := 0
	for _, s := range samples {
		if s.PiStarNS > boundNS {
			n++
		}
	}
	return n
}

// pathExtrema is one path key's observed latency range. Each registered
// entry has exactly one writer (the VM stack observing that path), so the
// struct needs no lock of its own.
type pathExtrema struct {
	min, max time.Duration
	seen     bool
}

func (p *pathExtrema) observe(d time.Duration) {
	if !p.seen {
		p.min, p.max, p.seen = d, d, true
		return
	}
	if d < p.min {
		p.min = d
	}
	if d > p.max {
		p.max = d
	}
}

// LatencyTracker accumulates observed latencies per path key and derives
// the reading error E = d_max − d_min over all observed paths — the
// quantity the paper extracts from ptp4l's latency data to instantiate the
// precision bound (§III-A3).
//
// Concurrency: with a sharded kernel, paths on different shards are
// observed in parallel. Path assigns each key a dense index before the
// simulation starts, and the table is fixed afterwards, so concurrent
// ObservePath calls on distinct indices are race-free (one writer per
// entry). Readers (Extrema, Paths) run from the driver, never concurrently
// with shard execution.
type LatencyTracker struct {
	index map[string]int // key → index into paths
	paths []pathExtrema
}

// NewLatencyTracker creates an empty tracker.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{index: make(map[string]int)}
}

// Path returns the dense index of a path key, registering it on first
// use. It must not be called once observations may be arriving
// concurrently.
func (lt *LatencyTracker) Path(key string) int {
	i, ok := lt.index[key]
	if !ok {
		i = len(lt.paths)
		lt.index[key] = i
		lt.paths = append(lt.paths, pathExtrema{})
	}
	return i
}

// ObservePath records one latency for a path index returned by Path.
func (lt *LatencyTracker) ObservePath(i int, d time.Duration) { lt.paths[i].observe(d) }

// Observe records one latency for a path key, registering it on first
// use (see Path).
func (lt *LatencyTracker) Observe(key string, d time.Duration) { lt.ObservePath(lt.Path(key), d) }

// each visits every observed path's extrema.
func (lt *LatencyTracker) each(fn func(p *pathExtrema)) {
	for i := range lt.paths {
		if lt.paths[i].seen {
			fn(&lt.paths[i])
		}
	}
}

// Extrema reports the global minimum and maximum observed latency.
func (lt *LatencyTracker) Extrema() (min, max time.Duration, ok bool) {
	first := true
	lt.each(func(p *pathExtrema) {
		if first {
			min, max = p.min, p.max
			first = false
			return
		}
		if p.min < min {
			min = p.min
		}
		if p.max > max {
			max = p.max
		}
	})
	return min, max, !first
}

// ReadingError reports E = d_max − d_min over all observed paths.
func (lt *LatencyTracker) ReadingError() (time.Duration, bool) {
	min, max, ok := lt.Extrema()
	if !ok {
		return 0, false
	}
	return max - min, true
}

// Paths reports how many distinct path keys have been observed.
func (lt *LatencyTracker) Paths() int {
	n := 0
	lt.each(func(*pathExtrema) { n++ })
	return n
}
