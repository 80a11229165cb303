package experiments

import (
	"context"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/attack/bounds"
)

// goldenAttacksDigest pins the adversarial campaign's full table — adversary
// census, analytic predictions, measured survivals and verdicts — for a
// compact sweep over every axis (Byzantine count × Sync delay × kernel
// diversity). Any change to the attack scheduling, the delay-attack hook,
// the FTA accounting or the verdict computation shows up here.
const goldenAttacksDigest = "709f9772487899a5716d0f4ad9f0e2bc909a591a57f1176721d3ab23d5e5e951"

// goldenAttacksConfig is the digest's sweep: small but covering the whole
// axis cross product, paper behavior (constant −24 µs falsification).
func goldenAttacksConfig() AttacksConfig {
	return AttacksConfig{
		Seed:            1,
		Duration:        6 * time.Minute,
		AttackStart:     2 * time.Minute,
		ByzantineCounts: []int{0, 1, 2},
		Delays:          []time.Duration{0, 24 * time.Microsecond},
		Diversity:       []string{DiversityIdentical, DiversityDiverse},
	}
}

func TestGoldenDigestAttacks(t *testing.T) {
	res, err := Attacks(context.Background(), goldenAttacksConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	if got := digest(h); got != goldenAttacksDigest {
		t.Fatalf("attacks digest changed: got %s want %s\nsummary: %s\n%s",
			got, goldenAttacksDigest, res.Summary(), RenderTable(res.Rows(), ""))
	}
	if n := res.Anomalies(); n != 0 {
		t.Fatalf("attacks campaign produced %d anomaly verdicts:\n%s",
			n, RenderTable(res.Rows(), ""))
	}
}

// TestAttacksBoundary checks the acceptance criterion directly: at the
// paper's default parameters the measured failure boundary coincides with
// the analytic 2f+1 prediction at every sweep point — no anomalies, and no
// outside-bound survivals either (both adversary vectors push readings in
// the same direction, so the bound is tight here).
func TestAttacksBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("full default campaign")
	}
	res, err := Attacks(context.Background(), AttacksConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Verdict == bounds.VerdictAnomaly {
			t.Errorf("%s (%s): measured failure inside the analytic bound", p.Label, p.Diversity)
		}
		if p.PredictedSurvive != p.MeasuredSurvive {
			t.Errorf("%s (%s): predicted %v measured %v — boundary off by more than one sweep step",
				p.Label, p.Diversity, p.PredictedSurvive, p.MeasuredSurvive)
		}
	}
}

// resultDigest is a study's rendered output — Summary plus every Rows cell.
type resultDigest struct {
	Summary string
	Rows    [][]string
}

func digestOf(t *testing.T, res Result, err error) resultDigest {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest{Summary: res.Summary(), Rows: res.Rows()}
}

// TestAttacksReproducibility checks the sweep is bit-identical across two
// runs and across runner worker counts (sequential vs parallel fan-out).
func TestAttacksReproducibility(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated campaign runs")
	}
	run := func(parallel int) resultDigest {
		res, err := Attacks(context.Background(), AttacksConfig{
			Seed:            3,
			Duration:        2 * time.Minute,
			AttackStart:     45 * time.Second,
			ByzantineCounts: []int{1, 2},
			Delays:          []time.Duration{0, 24 * time.Microsecond},
			Diversity:       []string{DiversityIdentical},
			Parallel:        parallel,
		})
		return digestOf(t, res, err)
	}
	seq := run(1)
	if again := run(1); !reflect.DeepEqual(seq, again) {
		t.Fatal("same-config attacks runs diverged")
	}
	if par := run(4); !reflect.DeepEqual(seq, par) {
		t.Fatal("attacks table depends on the worker count")
	}
}

func TestAttacksConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  AttacksConfig
		want string
	}{
		{"negative byz", AttacksConfig{ByzantineCounts: []int{-1}}, "byzantine_counts[0]"},
		{"negative delay", AttacksConfig{Delays: []time.Duration{-time.Second}}, "delays[0]"},
		{"bad diversity", AttacksConfig{Diversity: []string{"monoculture"}}, "diversity[0]"},
		{"bad behavior", AttacksConfig{Behavior: "teleport"}, "behavior"},
		{"negative duration", AttacksConfig{Duration: -time.Second}, "duration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if err := (AttacksConfig{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults apply): %v", err)
	}
}
