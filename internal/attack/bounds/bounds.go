// Package bounds computes the analytic resilience bound the adversarial
// campaign checks its measurements against: a fault-tolerant average over m
// clock readings with trim parameter f masks up to f arbitrary (Byzantine)
// readings provided m ≥ 2f+1 — the classic 2f+1 quorum condition, also the
// closed-form resilience bound of "Resilience Bounds of Network Clock
// Synchronization with Fault Correction" (arXiv 2006.15832) for
// correction-based synchronization. The bound is sufficient, not necessary:
// an adversary set the FTA happens to trim (e.g. attackers pushing in
// opposite directions) can be masked beyond it, so a measured survival
// outside the bound is unremarkable, while a measured failure inside the
// bound contradicts the theory and is flagged as an anomaly.
package bounds

import "gptpfta/internal/fta"

// Survives reports the analytic prediction: adversaries compromised domains
// out of m are masked iff the count is within fta.Tolerable(m, f).
func Survives(m, f, adversaries int) bool {
	return adversaries <= fta.Tolerable(m, f)
}

// DelayFaulty reports whether an on-path Sync delay attack of delayNS makes
// the attacked domain count as adversarial. The full one-way extra delay
// lands on every receiver's offset reading for that domain (the origin
// timestamp is honest but arrival is late, and pdelay cannot see the shift),
// so the domain behaves Byzantine once the induced error exceeds the
// FTSHMEM validity threshold; below it, the shift stays inside the
// disagreement window the precision bound already budgets for.
func DelayFaulty(delayNS, thresholdNS float64) bool {
	return delayNS > thresholdNS
}

// Verdict classifies one sweep point's measured outcome against the
// analytic prediction.
type Verdict string

const (
	// VerdictInsideSurvived: within the 2f+1 bound and the measured run
	// survived — the masking guarantee held.
	VerdictInsideSurvived Verdict = "inside-bound-survived"
	// VerdictOutsideFailed: beyond the bound and the measured run failed —
	// the analytic failure boundary was crossed where predicted.
	VerdictOutsideFailed Verdict = "outside-bound-failed"
	// VerdictOutsideSurvived: beyond the bound but the measured run
	// survived. The bound is sufficient, not necessary (the FTA may trim
	// exactly the adversarial extremes), so this is informational.
	VerdictOutsideSurvived Verdict = "outside-bound-survived"
	// VerdictAnomaly: within the bound but the measured run failed —
	// measured behavior contradicts the masking guarantee. This is the
	// only verdict the CI attack matrix gates on.
	VerdictAnomaly Verdict = "anomaly"
)

// Classify maps the analytic prediction and the measured outcome of one
// sweep point to its verdict.
func Classify(predictedSurvive, measuredSurvive bool) Verdict {
	switch {
	case predictedSurvive && measuredSurvive:
		return VerdictInsideSurvived
	case predictedSurvive:
		return VerdictAnomaly
	case measuredSurvive:
		return VerdictOutsideSurvived
	default:
		return VerdictOutsideFailed
	}
}
