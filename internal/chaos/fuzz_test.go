package chaos

import (
	"os"
	"testing"
)

// FuzzParsePlan holds the plan loader behind -chaos and plan_path to its
// contract: Parse never panics, and every plan it accepts passes Validate.
func FuzzParsePlan(f *testing.F) {
	example, err := os.ReadFile("../../examples/partition.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(roundTripPlan))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\ninput: %s", err, data)
		}
	})
}
