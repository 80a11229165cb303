package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"gptpfta/internal/measure"
)

// The golden digests below were generated with the original
// container/heap-based scheduler (PR 1 tree) and pin the exact numeric
// output of the experiments. The zero-allocation event kernel must keep
// every run bit-identical: same seeds → same samples, same stats, same
// violation counts. If a scheduler or pooling change alters any digest,
// it changed simulation behaviour, not just performance.
const (
	goldenBoundsDigest = "2593c1ea4982bbb216b0d47227d8cb33811b5085d184d853a1885556bdff07b0"
	goldenFig3aDigest  = "e6b68963ecb8dab5c2cbcd9a9caafd0442b9d4d746b9313ee3d74c8425a6934d"
	goldenFig3bDigest  = "dab11f7e547e6f93b44c7f80a56b94efc48e253f2225095b020357e546764f68"
	goldenFig4Digest   = "f57d2efc2cfd7c615e1a65352f0027bcfe0cdccc58c62e922c2c0d5a5397ca4b"

	goldenNetChaosDigest      = "48e082ed0d2f46237b20f0ea03fa7c510901fb20a488552ec6e9d9eb1e132453"
	goldenIntervalSweepDigest = "350c56fd7339a21e876a596ea60af942652411769e9d7d6d1b2a3a9b14f7051d"
	goldenDomainSweepDigest   = "b8c6c7baeba00404fd2d8d71f760e81b77b24d58e02fe3cbafbc295e9c3df1ec"
)

// hashSamples folds the full-precision bit pattern of every sample into h;
// any change in the measured series, however small, changes the digest.
func hashSamples(h hash.Hash, samples []measure.Sample) {
	for _, s := range samples {
		fmt.Fprintf(h, "%d %016x %016x %d\n",
			s.Seq, math.Float64bits(s.AtSec), math.Float64bits(s.PiStarNS), s.Replies)
	}
}

func hashRows(h hash.Hash, rows [][]string) {
	for _, row := range rows {
		for _, cell := range row {
			fmt.Fprintf(h, "%s|", cell)
		}
		fmt.Fprintln(h)
	}
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func TestGoldenDigestBounds(t *testing.T) {
	res, err := Bounds(context.Background(), BoundsConfig{Seed: 1, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	if got := digest(h); got != goldenBoundsDigest {
		t.Fatalf("bounds digest changed: got %s want %s\nsummary: %s",
			got, goldenBoundsDigest, res.Summary())
	}
}

func TestGoldenDigestFig3(t *testing.T) {
	for _, tc := range []struct {
		name    string
		diverse bool
		want    string
	}{
		{"identical", false, goldenFig3aDigest},
		{"diverse", true, goldenFig3bDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := CyberResilience(context.Background(), CyberResilienceConfig{
				Seed: 1, Duration: 8 * time.Minute, DiverseKernels: tc.diverse,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashSamples(h, res.Samples)
			hashRows(h, res.Rows())
			for _, e := range res.ExploitResults {
				fmt.Fprintf(h, "%s\n", e.String())
			}
			if got := digest(h); got != tc.want {
				t.Fatalf("fig3 %s digest changed: got %s want %s\nsummary: %s",
					tc.name, got, tc.want, res.Summary())
			}
		})
	}
}

func TestGoldenDigestFig4(t *testing.T) {
	res, err := FaultInjection(context.Background(), FaultInjectionConfig{
		Seed:                1,
		Duration:            20 * time.Minute,
		GMPeriod:            5 * time.Minute,
		RedundantMinPerHour: 6,
		RedundantMaxPerHour: 12,
		Downtime:            30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashSamples(h, res.Samples)
	fmt.Fprintf(h, "%016x %016x %016x %016x\n",
		math.Float64bits(res.Stats.MeanNS), math.Float64bits(res.Stats.StdNS),
		math.Float64bits(res.Stats.MinNS), math.Float64bits(res.Stats.MaxNS))
	fmt.Fprintf(h, "%d %d %d %d %d\n", res.Violations, res.TxTimestampTimeouts,
		res.DeadlineMisses, res.Takeovers, res.Injection.TotalFailures)
	if got := digest(h); got != goldenFig4Digest {
		t.Fatalf("fig4 digest changed: got %s want %s\nsummary: %s",
			got, goldenFig4Digest, res.Summary())
	}
}

// The sweep goldens pin the cold tables of the studies that run their
// points through the shared warm executor (warm.go), so a change to how a
// point is run cannot silently change what it measures.

func TestGoldenDigestNetChaos(t *testing.T) {
	res, err := NetworkChaos(context.Background(), NetworkChaosConfig{
		Seed:               1,
		Duration:           4 * time.Minute,
		ChaosStart:         2 * time.Minute,
		BurstBadLoss:       []float64{0.5},
		PartitionDurations: []time.Duration{20 * time.Second},
		Parallel:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDigest(t, "netchaos", res, goldenNetChaosDigest)
}

func TestGoldenDigestIntervalSweep(t *testing.T) {
	res, err := IntervalSweep(context.Background(), IntervalSweepConfig{
		Seed:      1,
		Intervals: []time.Duration{125 * time.Millisecond, 250 * time.Millisecond},
		Duration:  3 * time.Minute,
		Parallel:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDigest(t, "interval sweep", res, goldenIntervalSweepDigest)
}

func TestGoldenDigestDomainSweep(t *testing.T) {
	res, err := DomainSweep(context.Background(), DomainSweepConfig{
		Seed:     1,
		Counts:   []int{3, 4},
		Duration: 3 * time.Minute,
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRowsDigest(t, "domain sweep", res, goldenDomainSweepDigest)
}

// checkRowsDigest compares the digest of a result's table against its
// pinned golden.
func checkRowsDigest(t *testing.T, name string, res Result, want string) {
	t.Helper()
	h := sha256.New()
	hashRows(h, res.Rows())
	if got := digest(h); got != want {
		t.Fatalf("%s digest changed: got %s want %s\nsummary: %s", name, got, want, res.Summary())
	}
}

// TestGoldenDigestRunToRun guards the weaker invariant directly: two
// fresh systems with the same seed must agree sample-for-sample within
// one binary, independent of the pinned constants above.
func TestGoldenDigestRunToRun(t *testing.T) {
	run := func() string {
		res, err := CyberResilience(context.Background(), CyberResilienceConfig{Seed: 7, Duration: 8 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashSamples(h, res.Samples)
		return digest(h)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %s vs %s", a, b)
	}
}

// The comparison goldens pin the two-system studies (A1–A3, the voting and
// recovery contrasts) and the multi-seed campaign at shortened horizons:
// every statistic enters at full precision, not only as its rendered row.
const (
	goldenBaselineDigest     = "a5b8c890af564c083166c6f471b1225b202014813e7bab30919da4ecb931abd9"
	goldenSingleDomainDigest = "308e99689b1a358f3ffbe7cade223137e0ffcc4ab53cf65094281df2fd802f0f"
	goldenFlagPolicyDigest   = "3e867b2ec510dab57515a018ec4897f1ab58747ba9fb0ec9a84d74260e65100b"
	goldenVotingDigest       = "644b24845d45a4d882cf7f63e675acffa68ec66b1d17d26c94e9e68b0c66eb6b"
	goldenRecoveryDigest     = "239f1ccddd219a8bfda30cb20a5c276153007174ee450d74a07f2269644b1daf"
	goldenMultiSeedDigest    = "25f5b5f67018b9cc0b5b3d0434aa7a68ee5b16b14a9fbc7ba09d56c5deb8bd31"
)

// hashFloats folds the bit patterns of vs into h.
func hashFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%016x ", math.Float64bits(v))
	}
	fmt.Fprintln(h)
}

func hashStats(h hash.Hash, s measure.Stats) {
	hashFloats(h, s.MeanNS, s.StdNS, s.MinNS, s.MaxNS, s.MaxAtSec)
	fmt.Fprintf(h, "%d\n", s.Count)
}

func TestGoldenDigestComparisons(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, BaselineConfig) (*ComparisonResult, error)
		cfg  BaselineConfig
		want string
	}{
		{"baseline", BaselineNoStartupSync, BaselineConfig{Seed: 1, Duration: 4 * time.Minute}, goldenBaselineDigest},
		{"single-domain", AblationSingleDomainVsFTA, BaselineConfig{Seed: 1, Duration: 6 * time.Minute}, goldenSingleDomainDigest},
		{"flag-policy", AblationFlagPolicy, BaselineConfig{Seed: 1, Duration: 6 * time.Minute}, goldenFlagPolicyDigest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashRows(h, res.Rows())
			hashStats(h, res.OursStats)
			hashStats(h, res.VariantStats)
			hashFloats(h, res.BoundNS)
			if got := digest(h); got != tc.want {
				t.Fatalf("%s digest changed: got %s want %s\nsummary: %s", tc.name, got, tc.want, res.Summary())
			}
		})
	}
}

func TestGoldenDigestVoting(t *testing.T) {
	res, err := VotingFailover(context.Background(), VotingConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	hashFloats(h, res.WithVotingMaxErrNS, res.WithoutVotingMaxErrNS,
		res.WithVotingErrIntegral, res.WithoutVotingErrIntegral)
	fmt.Fprintf(h, "%d %d\n", res.VotingDetection, res.VotingTakeovers)
	if got := digest(h); got != goldenVotingDigest {
		t.Fatalf("voting digest changed: got %s want %s\nsummary: %s", got, goldenVotingDigest, res.Summary())
	}
}

func TestGoldenDigestRecovery(t *testing.T) {
	res, err := RecoveryComparison(context.Background(), RecoveryConfig{Seed: 1, Duration: 20 * time.Minute, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	for _, o := range []RecoveryOutcome{res.Linux, res.Unikernel} {
		hashFloats(h, o.DegradedSeconds, o.StaleDomainSeconds, o.MeanPrecisionNS)
		fmt.Fprintf(h, "%d %d\n", o.Downtime, o.Failures)
	}
	if got := digest(h); got != goldenRecoveryDigest {
		t.Fatalf("recovery digest changed: got %s want %s\nsummary: %s", got, goldenRecoveryDigest, res.Summary())
	}
}

func TestGoldenDigestMultiSeed(t *testing.T) {
	res, err := MultiSeedValidation(context.Background(), MultiSeedConfig{
		Seeds: []int64{1, 2}, Duration: 6 * time.Minute, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	for _, o := range res.Outcomes {
		hashFloats(h, o.MeanNS, o.MaxNS)
	}
	hashFloats(h, res.MeanOfMeansNS, res.StdOfMeansNS, res.WorstMaxNS)
	fmt.Fprintf(h, "%d\n", res.AnyViolations)
	if got := digest(h); got != goldenMultiSeedDigest {
		t.Fatalf("multiseed digest changed: got %s want %s\nsummary: %s", got, goldenMultiSeedDigest, res.Summary())
	}
}

// The micro-topology goldens pin the four studies that wire their own
// scheduler, PHCs, bridges and NICs instead of the paper's system (A4
// bmca, A10 dynamic, onestep, tas), at their default configs: every
// timing enters in nanoseconds or as its float bit pattern, not only as
// its rendered (millisecond or rounded) row.
const (
	goldenBMCADigest    = "ec233d44ce53e291d14d5101b80b5aab92fb37e8e94995c8251fd014e17e79a6"
	goldenDynamicDigest = "c9da21cb41f228577fcf3179a67eef04c8ba4460a1ad611ba04d81e54f93670f"
	goldenOneStepDigest = "9d680c97fc6ba597a7e578484ae03d95b5d7aa73a4621a9bdc780546d2f28942"
	goldenTASDigest     = "668c18728a22e43555b589fe69e28e77e438869ac5c451fa6cd94018e55e8d86"
)

func TestGoldenDigestBMCA(t *testing.T) {
	res, err := BMCAReconvergence(context.Background(), BMCAReconvergenceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	fmt.Fprintf(h, "%d %d\n", res.InitialElection.Nanoseconds(), res.ReelectionGap.Nanoseconds())
	if got := digest(h); got != goldenBMCADigest {
		t.Fatalf("bmca digest changed: got %s want %s\nsummary: %s", got, goldenBMCADigest, res.Summary())
	}
}

func TestGoldenDigestDynamic(t *testing.T) {
	res, err := DynamicMeshStudy(context.Background(), DynamicMeshConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	fmt.Fprintf(h, "%d %d %d %d\n", res.OffsetsBeforeFailure, res.OffsetsAfterRecovery,
		res.SyncOutage.Nanoseconds(), res.PassivePorts)
	if got := digest(h); got != goldenDynamicDigest {
		t.Fatalf("dynamic digest changed: got %s want %s\nsummary: %s", got, goldenDynamicDigest, res.Summary())
	}
}

func TestGoldenDigestOneStep(t *testing.T) {
	res, err := OneStepStudy(context.Background(), OneStepStudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	for _, m := range []StepModeOutcome{res.TwoStep, res.OneStep} {
		hashFloats(h, m.OffsetErrRMS)
		fmt.Fprintf(h, "%d %d\n", m.Samples, m.Messages)
	}
	if got := digest(h); got != goldenOneStepDigest {
		t.Fatalf("onestep digest changed: got %s want %s\nsummary: %s", got, goldenOneStepDigest, res.Summary())
	}
}

func TestGoldenDigestTAS(t *testing.T) {
	res, err := TASStudy(context.Background(), TASStudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashRows(h, res.Rows())
	for _, o := range []TASOutcome{res.FIFO, res.Protected} {
		fmt.Fprintf(h, "%d %d %d %d\n", o.SyncLatencyMin.Nanoseconds(), o.SyncLatencyMax.Nanoseconds(),
			o.SyncsObserved, o.BEFramesSent)
	}
	if got := digest(h); got != goldenTASDigest {
		t.Fatalf("tas digest changed: got %s want %s\nsummary: %s", got, goldenTASDigest, res.Summary())
	}
}
