package experiments

import (
	"context"
	"testing"
	"time"
)

func TestVotingFailover(t *testing.T) {
	res, err := VotingFailover(context.Background(), VotingConfig{Seed: 9})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.VotingDetection <= 0 || res.VotingDetection > time.Second {
		t.Fatalf("voting detection = %v, want within a few monitor periods", res.VotingDetection)
	}
	if res.WithVotingErrIntegral*3 > res.WithoutVotingErrIntegral {
		t.Fatalf("voting should cut the error integral sharply: %.0f vs %.0f ns·s",
			res.WithVotingErrIntegral, res.WithoutVotingErrIntegral)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRecoveryComparison(t *testing.T) {
	res, err := RecoveryComparison(context.Background(), RecoveryConfig{Seed: 4, Duration: 40 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Linux.Failures == 0 || res.Unikernel.Failures == 0 {
		t.Fatalf("no failures injected: %+v", res)
	}
	if res.Linux.DegradedSeconds <= res.Unikernel.DegradedSeconds {
		t.Fatalf("unikernel reboots should cut degraded time: linux %.0f s vs unikernel %.0f s",
			res.Linux.DegradedSeconds, res.Unikernel.DegradedSeconds)
	}
	if res.Linux.DegradedSeconds < 5*res.Unikernel.DegradedSeconds {
		t.Fatalf("expected a large exposure reduction, got linux %.0f s vs unikernel %.0f s",
			res.Linux.DegradedSeconds, res.Unikernel.DegradedSeconds)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestSyncIntervalSweep(t *testing.T) {
	res, err := IntervalSweep(context.Background(), IntervalSweepConfig{
		Seed:      6,
		Intervals: []time.Duration{62500 * time.Microsecond, 250 * time.Millisecond},
		Duration:  5 * time.Minute,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	points := res.Points
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if res.Summary() == "" || len(res.Rows()) != 3 {
		t.Fatalf("sweep result rendering: %q / %d rows", res.Summary(), len(res.Rows()))
	}
	// Γ = 2·r_max·S: the bound must grow with S.
	if points[1].BoundNS <= points[0].BoundNS {
		t.Fatalf("bound did not grow with S: %v", points)
	}
	for _, p := range points {
		if p.Violations > p.Samples/20 {
			t.Fatalf("violations at %s: %s", p.Label, p)
		}
		if p.String() == "" {
			t.Fatal("empty row")
		}
	}
}

func TestDomainCountSweep(t *testing.T) {
	res, err := DomainSweep(context.Background(), DomainSweepConfig{
		Seed: 8, Counts: []int{2, 4}, Duration: 8 * time.Minute, Parallel: 1,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	points := res.Points
	// M = 2 cannot mask the Byzantine GM; M = 4 must.
	if points[0].Violations < points[0].Samples/4 {
		t.Fatalf("M=2 unexpectedly masked the Byzantine GM: %s", points[0])
	}
	if points[1].Violations > points[1].Samples/20 {
		t.Fatalf("M=4 failed to mask the Byzantine GM: %s", points[1])
	}
}

func TestTASStudy(t *testing.T) {
	res, err := TASStudy(context.Background(), TASStudyConfig{Seed: 14})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.FIFO.SyncsObserved < 100 || res.Protected.SyncsObserved < 100 {
		t.Fatalf("syncs: fifo %d, protected %d", res.FIFO.SyncsObserved, res.Protected.SyncsObserved)
	}
	if res.FIFO.BEFramesSent == 0 {
		t.Fatal("no background load")
	}
	// The protected window must cut the Sync latency spread sharply: under
	// FIFO, Syncs queue behind multi-frame 1500 B bursts (tens of µs).
	if res.FIFO.Spread < 3*res.Protected.Spread {
		t.Fatalf("TAS effect too small: fifo spread %v vs protected %v",
			res.FIFO.Spread, res.Protected.Spread)
	}
	if res.Protected.Spread > 25*time.Microsecond {
		t.Fatalf("protected spread %v implausibly wide", res.Protected.Spread)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestMultiSeedValidation(t *testing.T) {
	res, err := MultiSeedValidation(context.Background(), MultiSeedConfig{
		Seeds:    []int64{11, 22, 33},
		Duration: 10 * time.Minute,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// The reproduction must be seed-robust: sub-µs means on every seed,
	// no bound violations anywhere.
	for _, o := range res.Outcomes {
		if o.MeanNS > 1500 {
			t.Fatalf("seed %d mean %.0f ns", o.Seed, o.MeanNS)
		}
		if o.Samples < 400 {
			t.Fatalf("seed %d samples %d", o.Seed, o.Samples)
		}
	}
	if res.AnyViolations > 0 {
		t.Fatalf("%d violations across seeds", res.AnyViolations)
	}
	if res.StdOfMeansNS > res.MeanOfMeansNS {
		t.Fatalf("means scatter too wide: %.0f ± %.0f", res.MeanOfMeansNS, res.StdOfMeansNS)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestDynamicMeshStudy(t *testing.T) {
	res, err := DynamicMeshStudy(context.Background(), DynamicMeshConfig{Seed: 15})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ElectedGM != "s1" || res.SuccessorGM != "s2" {
		t.Fatalf("election: %s -> %s", res.ElectedGM, res.SuccessorGM)
	}
	if res.PassivePorts == 0 {
		t.Fatal("mesh loops not broken")
	}
	// The outage spans at least the announce receipt timeout.
	if res.SyncOutage < 3*time.Second {
		t.Fatalf("outage %v below the receipt timeout", res.SyncOutage)
	}
	if res.SyncOutage > 20*time.Second {
		t.Fatalf("outage %v implausibly long", res.SyncOutage)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestOneStepStudy(t *testing.T) {
	res, err := OneStepStudy(context.Background(), OneStepStudyConfig{Seed: 16})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.TwoStep.Samples < 500 || res.OneStep.Samples < 500 {
		t.Fatalf("samples: %d / %d", res.TwoStep.Samples, res.OneStep.Samples)
	}
	// Parity: both modes accurate to ~100 ns RMS through the relay.
	if res.TwoStep.OffsetErrRMS > 150 || res.OneStep.OffsetErrRMS > 150 {
		t.Fatalf("accuracy: two-step %.0f, one-step %.0f ns RMS",
			res.TwoStep.OffsetErrRMS, res.OneStep.OffsetErrRMS)
	}
	// One-step halves the event traffic (no FollowUps).
	if res.OneStep.Messages > res.TwoStep.Messages*6/10 {
		t.Fatalf("messages: one-step %d vs two-step %d, want ~half",
			res.OneStep.Messages, res.TwoStep.Messages)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}
