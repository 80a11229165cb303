package ptp4l

import (
	"fmt"
	"math"
	"strings"
)

// OffsetStats are streaming statistics over a window of offset samples,
// mirroring the per-summary-interval statistics real ptp4l logs
// ("rms … max … freq …").
type OffsetStats struct {
	Count  int
	LastNS float64
	sumNS  float64
	sumSq  float64
	MaxAbs float64
}

// Add folds one sample into the window.
func (s *OffsetStats) Add(offsetNS float64) {
	s.Count++
	s.LastNS = offsetNS
	s.sumNS += offsetNS
	s.sumSq += offsetNS * offsetNS
	if a := math.Abs(offsetNS); a > s.MaxAbs {
		s.MaxAbs = a
	}
}

// MeanNS reports the window mean.
func (s OffsetStats) MeanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.sumNS / float64(s.Count)
}

// RMSNS reports the window root-mean-square.
func (s OffsetStats) RMSNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return math.Sqrt(s.sumSq / float64(s.Count))
}

// String formats like a ptp4l summary line.
func (s OffsetStats) String() string {
	return fmt.Sprintf("rms %7.1f max %7.1f (n=%d)", s.RMSNS(), s.MaxAbs, s.Count)
}

// Statistics aggregates a stack's run-time counters: per-domain grandmaster
// offsets, the aggregated FTA offsets fed to the shared servo, and the
// servo frequency trajectory.
type Statistics struct {
	domains   []int         // domain number per slot
	perDomain []OffsetStats // by domain slot
	aggregate OffsetStats
	freqPPB   OffsetStats
}

func newStatistics(domains []int) *Statistics {
	return &Statistics{domains: domains, perDomain: make([]OffsetStats, len(domains))}
}

// Domain reports the statistics of one domain's grandmaster offsets.
func (st *Statistics) Domain(domain int) OffsetStats {
	for i, d := range st.domains {
		if d == domain {
			return st.perDomain[i]
		}
	}
	return OffsetStats{}
}

// Aggregate reports the statistics of the FTA outputs.
func (st *Statistics) Aggregate() OffsetStats { return st.aggregate }

// FreqPPB reports the statistics of applied servo frequency corrections.
func (st *Statistics) FreqPPB() OffsetStats { return st.freqPPB }

// Summary renders a multi-line report, one line per domain with samples
// (in configuration order) plus the aggregation and frequency lines.
func (st *Statistics) Summary() string {
	var b strings.Builder
	for i, d := range st.domains {
		if st.perDomain[i].Count > 0 {
			fmt.Fprintf(&b, "dom%d offset %s\n", d+1, st.perDomain[i])
		}
	}
	fmt.Fprintf(&b, "FTA  offset %s\n", st.aggregate)
	fmt.Fprintf(&b, "servo freq  %s ppb\n", st.freqPPB)
	return b.String()
}

// Reset clears every window (a new summary interval begins).
func (st *Statistics) Reset() {
	clear(st.perDomain)
	st.aggregate = OffsetStats{}
	st.freqPPB = OffsetStats{}
}
