package fta

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refAverage, refValidityFlags, refMaliciousDiscarded and
// refAggregateWithInfo are the straightforward versions built on the
// standard library's sorts: the reference the allocation-free
// implementations must match bit for bit.
func refAverage(readings []float64, f int) (float64, error) {
	n := len(readings)
	if f < 0 || n < 2*f+1 {
		return 0, ErrInsufficientClocks
	}
	sorted := append([]float64(nil), readings...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted[f : n-f] {
		sum += v
	}
	return sum / float64(n-2*f), nil
}

func refMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func refValidityFlags(readings []Reading, threshold float64) []bool {
	flags := make([]bool, len(readings))
	for i, r := range readings {
		if !r.Fresh {
			continue
		}
		var others []float64
		for j, o := range readings {
			if j != i && o.Fresh {
				others = append(others, o.OffsetNS)
			}
		}
		if len(others) == 0 {
			flags[i] = true
			continue
		}
		flags[i] = math.Abs(r.OffsetNS-refMedian(others)) <= threshold
	}
	return flags
}

func refMaliciousDiscarded(usable []float64, invalid []bool, eff int) int {
	if eff <= 0 || len(usable) < 2*eff {
		return 0
	}
	idx := make([]int, len(usable))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return usable[idx[a]] < usable[idx[b]] })
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

func refAggregateWithInfo(readings []Reading, f int, threshold float64, policy FlagPolicy) (float64, []bool, AggregateInfo, error) {
	flags := refValidityFlags(readings, threshold)
	var usable []float64
	var invalid []bool
	for i, r := range readings {
		if r.Fresh && (policy != FlagExclude || flags[i]) {
			usable = append(usable, r.OffsetNS)
			invalid = append(invalid, !flags[i])
		}
	}
	var starved bool
	if policy == FlagExclude && len(usable) < 2*f+1 {
		starved = true
		usable, invalid = usable[:0], invalid[:0]
		for i, r := range readings {
			if r.Fresh {
				usable = append(usable, r.OffsetNS)
				invalid = append(invalid, !flags[i])
			}
		}
	}
	eff := f
	if maxF := (len(usable) - 1) / 2; eff > maxF {
		eff = maxF
	}
	if eff < 0 {
		eff = 0
	}
	info := AggregateInfo{Used: len(usable) - 2*eff, Discarded: 2 * eff, Starved: starved,
		MaliciousDiscarded: refMaliciousDiscarded(usable, invalid, eff)}
	avg, err := refAverage(usable, eff)
	if err != nil {
		return 0, flags, AggregateInfo{Starved: starved}, err
	}
	return avg, flags, info, nil
}

// drawCorrect returns a correct reading in [lo, hi]. Readings are often
// snapped to a coarse grid, so ties (including −0 against +0) are common
// and the sorts' tie-breaking is exercised.
func drawCorrect(r *rand.Rand, lo, hi float64) float64 {
	v := lo + r.Float64()*(hi-lo)
	if r.Intn(2) == 0 {
		step := (hi - lo) / 4
		v = lo + math.Round((v-lo)/step)*step
	}
	if v == 0 && r.Intn(2) == 0 {
		v = math.Copysign(0, -1)
	}
	return v
}

// drawArbitrary returns what a Byzantine clock might report: anything,
// including infinities, NaN and values tied with correct ones.
func drawArbitrary(r *rand.Rand, lo, hi float64) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	case 3:
		return lo
	case 4:
		return hi
	case 5:
		return math.Float64frombits(r.Uint64())
	default:
		return (r.Float64() - 0.5) * 1e12
	}
}

// TestFTAValidityAndSortReference checks, over random inputs with M ≤ 8:
//
//   - the Kopetz–Ochsenreiter validity behind u(N,f)·(E+Γ): with at most f
//     arbitrary readings out of M ≥ 2f+1, Average lies within the range of
//     the correct ones (up to the rounding of an M-term mean);
//   - Average, ValidityFlags, maliciousDiscarded and AggregateWithInfo
//     equal their sort.Float64s / sort.SliceStable references bit for bit.
func TestFTAValidityAndSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for iter := 0; iter < 20000; iter++ {
		m := 1 + r.Intn(8)
		f := r.Intn((m-1)/2 + 1)
		faults := r.Intn(f + 1)
		lo := (r.Float64() - 0.5) * 2e4
		hi := lo + r.Float64()*1e4
		if r.Intn(8) == 0 {
			lo, hi = -1, 1 // straddle zero so ±0 ties appear
		}
		readings := make([]float64, 0, m)
		for i := 0; i < m-faults; i++ {
			readings = append(readings, drawCorrect(r, lo, hi))
		}
		for i := 0; i < faults; i++ {
			readings = append(readings, drawArbitrary(r, lo, hi))
		}
		r.Shuffle(len(readings), func(i, j int) { readings[i], readings[j] = readings[j], readings[i] })

		got, err := Average(readings, f)
		if err != nil {
			t.Fatalf("iter %d: Average(%v, %d): %v", iter, readings, f, err)
		}
		tol := 8 * 0x1p-52 * math.Max(math.Abs(lo), math.Abs(hi))
		if !(got >= lo-tol && got <= hi+tol) {
			t.Fatalf("iter %d: Average(%v, %d) = %v outside correct range [%v, %v]", iter, readings, f, got, lo, hi)
		}
		want, _ := refAverage(readings, f)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: Average(%v, %d) = %v, reference %v", iter, readings, f, got, want)
		}

		rs := make([]Reading, m)
		invalid := make([]bool, m)
		for i, v := range readings {
			rs[i] = Reading{Domain: i, OffsetNS: v, Fresh: r.Intn(6) != 0}
			invalid[i] = r.Intn(3) == 0
		}
		threshold := r.Float64() * (hi - lo + 1)
		if gf, wf := ValidityFlags(rs, threshold), refValidityFlags(rs, threshold); !equalBools(gf, wf) {
			t.Fatalf("iter %d: ValidityFlags(%v, %v) = %v, reference %v", iter, rs, threshold, gf, wf)
		}
		for eff := 0; 2*eff <= m; eff++ {
			if g, w := maliciousDiscarded(readings, invalid, eff), refMaliciousDiscarded(readings, invalid, eff); g != w {
				t.Fatalf("iter %d: maliciousDiscarded(%v, %v, %d) = %d, reference %d", iter, readings, invalid, eff, g, w)
			}
		}
		for _, policy := range []FlagPolicy{FlagMonitor, FlagExclude} {
			ga, gfl, gi, gerr := AggregateWithInfo(rs, f, threshold, policy)
			wa, wfl, wi, werr := refAggregateWithInfo(rs, f, threshold, policy)
			if math.Float64bits(ga) != math.Float64bits(wa) || !equalBools(gfl, wfl) || gi != wi ||
				(gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, ErrInsufficientClocks)) {
				t.Fatalf("iter %d policy %d: AggregateWithInfo(%v) = (%v, %v, %+v, %v), reference (%v, %v, %+v, %v)",
					iter, policy, rs, ga, gfl, gi, gerr, wa, wfl, wi, werr)
			}
		}
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAggregateIntoAllocatesNothing pins the point of the rewrite: with a
// reused flags buffer, one aggregation step over M ≤ 8 readings allocates
// nothing.
func TestAggregateIntoAllocatesNothing(t *testing.T) {
	rs := []Reading{fresh(0, -120), fresh(1, 15), fresh(2, 40), fresh(3, 24000), fresh(4, 3), {Domain: 5}}
	flags := make([]bool, 0, len(rs))
	allocs := testing.AllocsPerRun(100, func() {
		_, flags, _, _ = AggregateInto(flags, rs, 2, 500, FlagMonitor)
	})
	if allocs != 0 {
		t.Fatalf("AggregateInto allocates %v times per call, want 0", allocs)
	}
}
