// Command resilience reproduces the paper's cyber-resilience experiment
// (Fig. 3a / Fig. 3b): a 1 h run during which an attacker exploits
// CVE-2018-18955 on the virtual grandmasters c41 (at 00:21:42) and c11
// (at 00:31:52). With identical kernels both exploits succeed and the
// measured precision violates the bound after the second compromise; with
// diversified kernels the second exploit fails and the FTA masks the
// single Byzantine grandmaster.
//
// Multiple seeds fan out across the runner's worker pool; per-seed output
// is printed in seed order regardless of completion order.
//
// Usage:
//
//	resilience [-seed N | -seeds 1,2,3] [-parallel N] [-shards N] [-duration 1h] [-diverse] [-series] [-chaos plan.json]
//
// -shards runs each seed's simulation on the sharded PDES kernel; the
// output is bit-identical at every shard count.
//
// The adversarial (attacks) and wide-area (wansites) campaigns run through
// the registry with cmd/sweep, e.g.
// `sweep -which attacks -config examples/attacks-smoke.json -fail-on-anomaly`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
	"gptpfta/internal/prof"
	"gptpfta/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "resilience:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master random seed")
	seedList := fs.String("seeds", "", "comma-separated seed list; runs one experiment per seed")
	parallel := fs.Int("parallel", 0, "worker count for multi-seed runs (0 = GOMAXPROCS, 1 = sequential)")
	shards := fs.Int("shards", 1, "PDES shard count (1 = legacy single scheduler; results are bit-identical)")
	duration := fs.Duration("duration", time.Hour, "experiment duration (attacks scale with it)")
	diverse := fs.Bool("diverse", false, "diversify grandmaster kernels (Fig. 3b); default identical (Fig. 3a)")
	series := fs.Bool("series", true, "print the ASCII precision series (single-seed runs only)")
	chaosPath := fs.String("chaos", "", "network chaos scenario plan (JSON) to run alongside the exploits")
	holdover := fs.Duration("holdover-window", 0, "arm the ptp4l holdover watchdog with this quorum-starvation window (0 = off)")
	metricsPath := fs.String("metrics", "", "write a JSONL metrics snapshot (one line per metric, tagged per seed) to this file")
	profCfg := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*profCfg)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "resilience:", perr)
		}
	}()

	var plan *chaos.Plan
	if *chaosPath != "" {
		plan, err = chaos.Load(*chaosPath)
		if err != nil {
			return err
		}
		fmt.Printf("chaos plan %q: %d actions\n", plan.Name, len(plan.Actions))
	}

	seeds := []int64{*seed}
	if *seedList != "" {
		seeds = seeds[:0]
		for _, part := range strings.Split(*seedList, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -seeds entry %q: %w", part, err)
			}
			seeds = append(seeds, s)
		}
	}

	exp, err := experiments.Lookup("resilience")
	if err != nil {
		return err
	}
	showSeries := *series && len(seeds) == 1

	runs := make([]runner.Run, len(seeds))
	for i, s := range seeds {
		s := s
		runs[i] = runner.Run{Name: fmt.Sprintf("seed/%d", s), Do: func(ctx context.Context) (any, error) {
			res, err := exp.Run(ctx, experiments.CyberResilienceConfig{
				Seed:           s,
				Duration:       *duration,
				DiverseKernels: *diverse,
				ChaosPlan:      plan,
				HoldoverWindow: *holdover,
				Shards:         *shards,
			})
			if err != nil {
				return nil, err
			}
			typed := res.(*experiments.CyberResilienceResult)
			return block{
				run:  fmt.Sprintf("seed/%d", s),
				text: render(s, *duration, showSeries, typed),
				res:  typed,
			}, nil
		}}
	}
	campaign := obs.NewRegistry()
	outcomes := runner.New(*parallel).WithMetrics(campaign).Execute(context.Background(), runs)
	blocks, err := runner.Values[block](outcomes)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		fmt.Print(b.text)
	}
	if *metricsPath != "" {
		snaps := make([]obs.Tagged, 0, len(blocks)+1)
		for _, b := range blocks {
			snaps = append(snaps, obs.Tagged{Run: b.run, Metrics: b.res.ObsMetrics()})
		}
		snaps = append(snaps, obs.Tagged{Run: "runner", Metrics: campaign.Snapshot()})
		if err := obs.WriteJSONLFile(*metricsPath, snaps...); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsPath)
	}
	return nil
}

// block is one seed's rendered output plus its result, kept so -metrics can
// snapshot each run after the deterministic ordering is restored.
type block struct {
	run  string
	text string
	res  experiments.ObsCarrier
}

func render(seed int64, duration time.Duration, series bool, res *experiments.CyberResilienceResult) string {
	var b strings.Builder
	figure := "Fig. 3a (identical kernels)"
	if res.Config.DiverseKernels {
		figure = "Fig. 3b (diverse kernels)"
	}
	fmt.Fprintf(&b, "=== %s — seed %d, duration %v ===\n", figure, seed, duration)
	fmt.Fprintf(&b, "bound parameters: E = %v, Gamma = %v, Pi = %v, gamma = %v\n",
		res.ReadingError, res.DriftOffset, res.Bound, res.Gamma)
	fmt.Fprintf(&b, "attack schedule: first %v, second %v\n", res.FirstAttackAt, res.SecondAttackAt)
	for _, r := range res.ExploitResults {
		fmt.Fprintf(&b, "   %s\n", r)
	}
	fmt.Fprintln(&b, res.Summary())
	fmt.Fprintf(&b, "samples: %d before second attack (%d violations), %d after (%d violations, max %.0f ns)\n",
		res.SamplesBeforeSecond, res.ViolationsBeforeSecond,
		res.SamplesAfterSecond, res.ViolationsAfterSecond, res.MaxAfterSecondNS)
	if series {
		b.WriteString("\n")
		b.WriteString(experiments.RenderSeries(res.Windows, res.Bound, res.Gamma, 18))
	}
	return b.String()
}
