package bounds

import "testing"

// TestTolerable pins where Survives puts the survival boundary: exactly
// min(f, ⌊(m−1)/2⌋) adversaries are masked and one more is not, degenerate
// inputs included.
func TestTolerable(t *testing.T) {
	for _, tc := range []struct {
		name string
		m, f int
		want int
	}{
		{"paper point: 4 domains f=1", 4, 1, 1},
		{"majority cap binds before f", 4, 2, 1},
		{"three domains mask one", 3, 1, 1},
		{"two domains mask none", 2, 1, 0},
		{"one domain masks none", 1, 3, 0},
		{"zero domains", 0, 1, 0},
		{"negative domains", -4, 1, 0},
		{"f zero", 4, 0, 0},
		{"f negative", 4, -1, 0},
		{"large fabric capped by f", 99, 2, 2},
		{"large f capped by domains", 9, 9, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !Survives(tc.m, tc.f, tc.want) {
				t.Fatalf("Survives(%d, %d, %d) = false, want %d adversaries masked",
					tc.m, tc.f, tc.want, tc.want)
			}
			if Survives(tc.m, tc.f, tc.want+1) {
				t.Fatalf("Survives(%d, %d, %d) = true, want at most %d adversaries masked",
					tc.m, tc.f, tc.want+1, tc.want)
			}
		})
	}
}

func TestSurvives(t *testing.T) {
	for _, tc := range []struct {
		name        string
		m, f, advrs int
		want        bool
	}{
		{"no adversaries always survive", 4, 1, 0, true},
		{"at the bound", 4, 1, 1, true},
		{"one past the bound", 4, 1, 2, false},
		{"diverse campaign caps at one", 4, 1, 1, true},
		{"f=2 masks two", 5, 2, 2, true},
		{"f=2 overrun", 5, 2, 3, false},
		{"degenerate single domain", 1, 1, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Survives(tc.m, tc.f, tc.advrs); got != tc.want {
				t.Fatalf("Survives(%d, %d, %d) = %v, want %v",
					tc.m, tc.f, tc.advrs, got, tc.want)
			}
		})
	}
}

func TestDelayFaulty(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		delayNS, thresholdNS float64
		want                 bool
	}{
		{"no delay", 0, 10000, false},
		{"below validity threshold", 9000, 10000, false},
		{"at the threshold is benign", 10000, 10000, false},
		{"paper delay exceeds threshold", 24000, 10000, true},
		{"negative delay never faulty", -5000, 10000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := DelayFaulty(tc.delayNS, tc.thresholdNS); got != tc.want {
				t.Fatalf("DelayFaulty(%v, %v) = %v, want %v",
					tc.delayNS, tc.thresholdNS, got, tc.want)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name                string
		predicted, measured bool
		want                Verdict
	}{
		{"inside bound and survived", true, true, VerdictInsideSurvived},
		{"predicted survive but failed is the anomaly", true, false, VerdictAnomaly},
		{"outside bound and failed", false, false, VerdictOutsideFailed},
		{"outside bound yet survived is informational", false, true, VerdictOutsideSurvived},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.predicted, tc.measured); got != tc.want {
				t.Fatalf("Classify(%v, %v) = %q, want %q",
					tc.predicted, tc.measured, got, tc.want)
			}
		})
	}
	// Only the anomaly verdict gates CI; the string values are part of the
	// row schema the attack-matrix job greps, so pin them.
	for v, s := range map[Verdict]string{
		VerdictInsideSurvived:  "inside-bound-survived",
		VerdictOutsideFailed:   "outside-bound-failed",
		VerdictOutsideSurvived: "outside-bound-survived",
		VerdictAnomaly:         "anomaly",
	} {
		if string(v) != s {
			t.Fatalf("verdict %q drifted from pinned wire value %q", v, s)
		}
	}
}
