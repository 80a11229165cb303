package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"gptpfta/internal/sim"
)

// MultiSeedConfig parameterises the reproduction-robustness check: the
// headline fault-injection result re-run across independent seeds, so the
// reproduced shapes are demonstrably not single-seed accidents.
type MultiSeedConfig struct {
	// Seeds lists the per-run master seeds explicitly. When empty,
	// SeedCount seeds are derived from CampaignSeed (or the classic
	// {1..5} set when SeedCount is also zero).
	Seeds []int64 `json:"seeds,omitempty"`
	// CampaignSeed + SeedCount derive the per-run seeds via
	// sim.DeriveSeed, so a whole campaign is reproducible from one number.
	CampaignSeed int64         `json:"campaign_seed,omitempty"`
	SeedCount    int           `json:"seed_count,omitempty"`
	Duration     time.Duration `json:"duration,omitempty"`
	// Parallel is the worker count used to fan the seeds across cores:
	// 0 selects GOMAXPROCS, 1 forces sequential execution. The aggregated
	// result is identical for every value — each seed runs in its own
	// simulation with its own sim.Streams.
	Parallel int `json:"parallel,omitempty"`
}

// maxSeeds caps a campaign's seed count (served's default point limit):
// seed_count sizes an allocation before anything runs, so an untrusted
// config must not choose it freely.
const maxSeeds = 64

// Validate implements Validator.
func (c MultiSeedConfig) Validate() error {
	if c.SeedCount < 0 || c.SeedCount > maxSeeds || len(c.Seeds) > maxSeeds {
		return fmt.Errorf("seed_count and len(seeds) must be in [0, %d] (got %d and %d)",
			maxSeeds, c.SeedCount, len(c.Seeds))
	}
	for i, s := range c.Seeds {
		if slices.Contains(c.Seeds[:i], s) {
			return fmt.Errorf("seeds repeats seed %d", s)
		}
	}
	return checkDurations(field{"duration", c.Duration})
}

func (c MultiSeedConfig) withDefaults() MultiSeedConfig {
	if len(c.Seeds) == 0 {
		if c.SeedCount > 0 {
			c.Seeds = make([]int64, c.SeedCount)
			for i := range c.Seeds {
				c.Seeds[i] = sim.DeriveSeed(c.CampaignSeed, "multiseed/"+strconv.Itoa(i))
			}
		} else {
			c.Seeds = []int64{1, 2, 3, 4, 5}
		}
	}
	if c.Duration <= 0 {
		c.Duration = 15 * time.Minute
	}
	return c
}

// SeedOutcome is one seed's headline numbers.
type SeedOutcome struct {
	Seed       int64
	MeanNS     float64
	MaxNS      float64
	Violations int
	Samples    int
	Takeovers  int
}

// MultiSeedResult aggregates outcomes across seeds.
type MultiSeedResult struct {
	Config   MultiSeedConfig
	Outcomes []SeedOutcome

	MeanOfMeansNS float64
	StdOfMeansNS  float64
	WorstMaxNS    float64
	AnyViolations int
}

// Summary renders the robustness verdict.
func (r *MultiSeedResult) Summary() string {
	return fmt.Sprintf(
		"across %d seeds (%v each): mean precision %.0f ± %.0f ns, worst spike %.0f ns, %d bound violations in total",
		len(r.Outcomes), r.Config.Duration, r.MeanOfMeansNS, r.StdOfMeansNS,
		r.WorstMaxNS, r.AnyViolations)
}

// Rows renders the per-seed table.
func (r *MultiSeedResult) Rows() [][]string {
	rows := [][]string{{"seed", "mean_ns", "max_ns", "violations", "samples", "takeovers"}}
	for _, o := range r.Outcomes {
		rows = append(rows, []string{
			strconv.FormatInt(o.Seed, 10),
			fmt.Sprintf("%.0f", o.MeanNS),
			fmt.Sprintf("%.0f", o.MaxNS),
			strconv.Itoa(o.Violations),
			strconv.Itoa(o.Samples),
			strconv.Itoa(o.Takeovers),
		})
	}
	return rows
}

// meanStd returns the mean and the population standard deviation of the
// values using the numerically stable two-pass form: the single-pass
// sumSq/n − mean² suffers catastrophic cancellation for large, tightly
// clustered values, can go negative and then silently reports a zero
// standard deviation.
func meanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(values)))
}

// MultiSeedValidation runs the fault-injection campaign once per seed —
// one point per seed, fanned across the point executor's workers — and
// aggregates the headline statistics in seed order, regardless of
// completion order. Distinct seeds never share a prefix, so no point forks.
func MultiSeedValidation(ctx context.Context, cfg MultiSeedConfig) (*MultiSeedResult, error) {
	cfg = cfg.withDefaults()
	points := make([]point[*FaultInjectionResult], len(cfg.Seeds))
	for i, seed := range cfg.Seeds {
		points[i] = faultInjectionPoint(fmt.Sprintf("seed/%d", seed), FaultInjectionConfig{
			Seed:                seed,
			Duration:            cfg.Duration,
			GMPeriod:            cfg.Duration / 4,
			RedundantMinPerHour: 4,
			RedundantMaxPerHour: 8,
			Downtime:            30 * time.Second,
		}.withDefaults())
	}
	injections, _, err := runPoints(ctx, campaign{
		duration: cfg.Duration,
		diverge:  faultInjectStart,
		parallel: cfg.Parallel,
	}, points)
	if err != nil {
		return nil, err
	}

	res := &MultiSeedResult{Config: cfg}
	means := make([]float64, 0, len(injections))
	for i, fi := range injections {
		out := SeedOutcome{
			Seed:       cfg.Seeds[i],
			MeanNS:     fi.Stats.MeanNS,
			MaxNS:      fi.Stats.MaxNS,
			Violations: fi.Violations,
			Samples:    fi.Stats.Count,
			Takeovers:  fi.Takeovers,
		}
		res.Outcomes = append(res.Outcomes, out)
		means = append(means, out.MeanNS)
		if out.MaxNS > res.WorstMaxNS {
			res.WorstMaxNS = out.MaxNS
		}
		res.AnyViolations += out.Violations
	}
	res.MeanOfMeansNS, res.StdOfMeansNS = meanStd(means)
	return res, nil
}
