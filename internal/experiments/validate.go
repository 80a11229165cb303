package experiments

import (
	"fmt"
	"math"
	"time"

	"gptpfta/internal/chaos"
)

// Shared validation vocabulary for the config structs' Validate methods.
// The withDefaults() convention treats zero values as "use the default", so
// validation rejects what defaulting would otherwise silently absorb or
// misread: negative durations, NaN or out-of-range rates, nonsensical
// counts.

// field pairs a config field's wire name with its duration value.
type field struct {
	name string
	d    time.Duration
}

// checkDurations rejects negative durations (zero means "default").
func checkDurations(fields ...field) error {
	for _, f := range fields {
		if f.d < 0 {
			return fmt.Errorf("%s must not be negative (got %v)", f.name, f.d)
		}
	}
	return nil
}

// checkRate rejects NaN and values outside [0, 1].
func checkRate(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s must be a probability in [0, 1] (got %v)", name, v)
	}
	return nil
}

// checkFinite rejects NaN and infinities.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be finite (got %v)", name, v)
	}
	return nil
}

// checkNonNegative rejects NaN, infinities and negative values.
func checkNonNegative(name string, v float64) error {
	if err := checkFinite(name, v); err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("%s must not be negative (got %v)", name, v)
	}
	return nil
}

// checkPlan applies chaos.Load's static plan checks to an embedded plan
// (nil means no plan), so a config carrying an empty or malformed plan is
// rejected at decode time instead of after a System is built.
func checkPlan(p *chaos.Plan) error {
	if p == nil {
		return nil
	}
	return p.Validate()
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
