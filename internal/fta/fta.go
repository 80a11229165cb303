// Package fta implements the fault-tolerant average (FTA) convergence
// function of Kopetz and Ochsenreiter ("Clock Synchronization in Distributed
// Real-Time Systems", IEEE ToC 1987) that the paper's extended ptp4l uses to
// aggregate the master offsets of M gPTP domains, together with the
// convergence-function precision bound Π(N, f, E, Γ) = u(N, f)·(E + Γ) used
// in §III-A3 of the paper.
package fta

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// inlineReadings is the reading count up to which the FTA's scratch space
// lives in fixed arrays on the stack, so an aggregation allocates nothing.
// Every configuration here has M ≤ 8 domains; larger inputs still work,
// through heap-backed scratch.
const inlineReadings = 8

// lessFloat orders float64s the way sort.Float64s does: NaNs first.
func lessFloat(a, b float64) bool { return a < b || (a != a && b == b) }

// sortFloats sorts v in place by insertion, which is what sort.Float64s
// runs for the few (≤ 12) readings an aggregation sees, so the order — and
// with it every sum over it — is bit-identical to sort.Float64s there.
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && lessFloat(v[j], v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Tolerable is the FTA's masking capacity min(f, ⌊(n−1)/2⌋), the resilience
// bound of arXiv 2006.15832: the largest number of arbitrary (Byzantine)
// readings an FTA with trim parameter f provably masks among n readings —
// f itself while the 2f+1 quorum holds, otherwise the largest f' with
// n ≥ 2f'+1. It is never negative: a non-positive n or f masks nothing.
func Tolerable(n, f int) int {
	return max(0, min(f, (n-1)/2))
}

// ErrInsufficientClocks is returned when fewer than 2f+1 readings are
// available: the FTA cannot mask f Byzantine faults below that count.
var ErrInsufficientClocks = errors.New("fta: fewer than 2f+1 clock readings")

// Average sorts the readings, discards the f smallest and f largest, and
// returns the arithmetic mean of the remainder. It does not modify the
// input slice. With at least 2f+1 readings of which at most f are arbitrary
// (Byzantine) and the rest lie within a window Π, the result is guaranteed
// to lie within that window — the masking property the paper relies on for
// Byzantine grandmaster tolerance.
func Average(readings []float64, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("fta: negative fault count %d", f)
	}
	n := len(readings)
	if n < 2*f+1 {
		return 0, fmt.Errorf("%w: n=%d f=%d", ErrInsufficientClocks, n, f)
	}
	var buf [inlineReadings]float64
	sorted := append(buf[:0], readings...)
	sortFloats(sorted)
	kept := sorted[f : n-f]
	var sum float64
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept)), nil
}

// U computes the amortisation factor u(N, f) = (N − 2f) / (N − 3f) of the
// FTA convergence function. For the paper's configuration N = 4, f = 1 it
// evaluates to 2, yielding the bound Π = 2(E + Γ). It returns +Inf when
// N ≤ 3f (the algorithm does not converge).
func U(n, f int) float64 {
	if n <= 3*f {
		return math.Inf(1)
	}
	return float64(n-2*f) / float64(n-3*f)
}

// Bound instantiates the convergence-function precision bound
// Π(N, f, E, Γ) = u(N, f)·(E + Γ), where E is the reading error (max minus
// min network latency between any two nodes) and Γ = 2·r_max·S is the drift
// offset for maximum drift rate r_max over resynchronisation interval S.
func Bound(n, f int, readingError, driftOffset time.Duration) time.Duration {
	u := U(n, f)
	if math.IsInf(u, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(u * float64(readingError+driftOffset))
}

// Reading is one domain's grandmaster offset sample as stored in FTSHMEM.
type Reading struct {
	// Domain is the gPTP domain number the offset was derived from.
	Domain int
	// OffsetNS is the grandmaster offset in nanoseconds (local minus GM).
	OffsetNS float64
	// At is the local PHC time the offset was computed at; stale readings
	// (no Sync received, fail-silent GM) are excluded from aggregation.
	At float64
	// Fresh reports whether the reading is recent enough to use.
	Fresh bool
}

// ValidityFlags computes, for each fresh reading, whether its offset lies
// within threshold of the median of the other fresh readings — the array of
// M booleans the paper keeps in FTSHMEM to expose which grandmaster clocks
// disagree with the rest. Stale readings are flagged false.
func ValidityFlags(readings []Reading, threshold float64) []bool {
	return appendValidityFlags(make([]bool, 0, len(readings)), readings, threshold)
}

// appendValidityFlags is ValidityFlags appending to dst[:0].
func appendValidityFlags(dst []bool, readings []Reading, threshold float64) []bool {
	flags := dst[:0]
	var buf [inlineReadings]float64
	for i, r := range readings {
		flags = append(flags, false)
		if !r.Fresh {
			continue
		}
		others := buf[:0]
		for j, o := range readings {
			if j == i || !o.Fresh {
				continue
			}
			others = append(others, o.OffsetNS)
		}
		if len(others) == 0 {
			flags[i] = true // nothing to compare against
			continue
		}
		flags[i] = math.Abs(r.OffsetNS-median(others)) <= threshold
	}
	return flags
}

// median sorts v in place and returns its median.
func median(v []float64) float64 {
	sortFloats(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// FlagPolicy selects how validity flags influence aggregation.
type FlagPolicy int

const (
	// FlagMonitor computes the flags for monitoring only; the FTA runs
	// over all fresh readings (the masking property handles up to f
	// faults). This is the paper's configuration.
	FlagMonitor FlagPolicy = iota + 1
	// FlagExclude removes flagged-invalid readings before the FTA when
	// enough readings remain; an ablation studied in the benchmarks.
	FlagExclude
)

// MarshalText names the policy: "exclude" for FlagExclude, "monitor"
// otherwise (the zero value behaves as FlagMonitor everywhere).
func (p FlagPolicy) MarshalText() ([]byte, error) {
	if p == FlagExclude {
		return []byte("exclude"), nil
	}
	return []byte("monitor"), nil
}

// UnmarshalText parses a policy name; "" means FlagMonitor.
func (p *FlagPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "", "monitor":
		*p = FlagMonitor
	case "exclude":
		*p = FlagExclude
	default:
		return fmt.Errorf("fta: unknown flag policy %q", text)
	}
	return nil
}

// AggregateInfo reports what one aggregation step actually did, for
// observability: how many readings the FTA averaged, how many extreme
// readings it discarded (2·f_effective), and whether FlagExclude starved
// the quorum and fell back to all fresh readings.
type AggregateInfo struct {
	Used      int  // readings averaged after filtering and discards
	Discarded int  // extreme readings trimmed by the FTA (2·f_eff)
	Starved   bool // FlagExclude left < 2f+1 readings and fell back
	// MaliciousDiscarded counts trimmed extremes that the validity flags
	// had also marked invalid — readings the FTA discarded *as malicious*
	// (a falsified or delay-attacked domain), as opposed to the benign
	// extremes trimming always removes. Under FlagExclude only the
	// starvation fallback can produce them (flagged readings are removed
	// before the FTA otherwise).
	MaliciousDiscarded int
}

// Aggregate runs the full FTSHMEM aggregation step: freshness filtering,
// validity flags, optional exclusion, and the FTA. It returns the
// aggregated master offset, the flags (indexed like readings), and an error
// if fewer than 2f+1 usable readings remain.
func Aggregate(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, error) {
	avg, flags, _, err := AggregateWithInfo(readings, f, threshold, policy)
	return avg, flags, err
}

// AggregateWithInfo is Aggregate plus an AggregateInfo describing the step.
func AggregateWithInfo(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, AggregateInfo, error) {
	return AggregateInto(make([]bool, 0, len(readings)), readings, f, threshold, policy)
}

// AggregateInto is AggregateWithInfo writing the flags into flags[:0]
// (grown if short) and returning them: a caller that reuses one flags
// buffer aggregates without allocating.
func AggregateInto(flags []bool, readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, AggregateInfo, error) {
	flags = appendValidityFlags(flags, readings, threshold)
	var ubuf [inlineReadings]float64
	var ibuf [inlineReadings]bool
	usable := ubuf[:0]
	invalid := ibuf[:0] // parallel to usable
	for i, r := range readings {
		if !r.Fresh {
			continue
		}
		if policy == FlagExclude && !flags[i] {
			continue
		}
		usable = append(usable, r.OffsetNS)
		invalid = append(invalid, !flags[i])
	}
	var starved bool
	if policy == FlagExclude && len(usable) < 2*f+1 {
		// Exclusion starved the quorum; fall back to all fresh readings
		// so that a burst of disagreement cannot halt synchronisation.
		starved = true
		usable = usable[:0]
		invalid = invalid[:0]
		for i, r := range readings {
			if r.Fresh {
				usable = append(usable, r.OffsetNS)
				invalid = append(invalid, !flags[i])
			}
		}
	}
	// Degrade f when too few domains remain (e.g. a fail-silent GM during
	// reboot): with n fresh readings the largest maskable fault count is
	// floor((n-1)/2).
	eff := Tolerable(len(usable), f)
	info := AggregateInfo{Used: len(usable) - 2*eff, Discarded: 2 * eff, Starved: starved,
		MaliciousDiscarded: maliciousDiscarded(usable, invalid, eff)}
	avg, err := Average(usable, eff)
	if err != nil {
		return 0, flags, AggregateInfo{Starved: starved}, err
	}
	return avg, flags, info, nil
}

// maliciousDiscarded counts the eff smallest and eff largest of the usable
// readings that were also flagged invalid. Ties at the trim boundary are
// broken by input order: the stable insertion sort below is what
// sort.SliceStable runs on up to 20 elements. Any tie-break is sound for
// counting since tied readings are interchangeable in the trim.
func maliciousDiscarded(usable []float64, invalid []bool, eff int) int {
	if eff <= 0 || len(usable) < 2*eff {
		return 0
	}
	var buf [inlineReadings]int
	idx := buf[:0]
	for i := range usable {
		idx = append(idx, i)
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && usable[idx[j]] < usable[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	n := 0
	for k := 0; k < eff; k++ {
		if invalid[idx[k]] {
			n++
		}
		if invalid[idx[len(idx)-1-k]] {
			n++
		}
	}
	return n
}
