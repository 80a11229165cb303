// Command sweep runs any registered study by name, dispatching it through
// the experiments registry and fanning independent studies across the
// runner's worker pool. Output order is deterministic regardless of
// completion order.
//
// A curated list covers the design-space studies beyond the paper's
// headline figures — synchronization-interval and domain-count sweeps, the
// dynamic 802.1AS and BMCA ablations, the 2f+1 fail-consistent voting
// variant, the TSN egress study and the §IV recovery comparison — with its
// own headers and footnotes; -which all runs exactly that list, and a
// curated key such as "bmca" also selects its "bmca-*" variants. Any other
// registry name (attacks, wansites, netchaos, ...) runs on its seeded
// default config, headed by the registry's description.
//
// Usage:
//
//	sweep [-seed N] [-parallel N] [-shards N] [-warm-start] [-config file.json]
//	      [-fail-on-anomaly] [-metrics file.jsonl] [-which all|<curated key>|<registry name>]
//
// -seed, -parallel and -shards apply to every study whose config has the
// field; studies without it ignore it. -shards runs shard-aware studies on
// the sharded PDES kernel (the tables are bit-identical at every shard
// count).
//
// -config overlays a JSON config file onto the selected study's config
// through the registry's strict decode path (the same path the job server
// uses); it requires a single-study -which selection.
//
// -fail-on-anomaly exits non-zero when a study reports anomaly verdicts (a
// measured outcome the analytic bound does not predict). The attack and
// wide-area smoke targets gate on it:
//
//	sweep -which attacks -config examples/attacks-smoke.json -fail-on-anomaly
//	sweep -which wansites -config examples/wansites-smoke.json -fail-on-anomaly
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
	"gptpfta/internal/prof"
	"gptpfta/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// study is one registry dispatch plus its rendering epilogue.
type study struct {
	key        string
	header     string
	experiment string         // registry name; empty means key
	fields     map[string]any // config fields set on the seeded defaults
	footnotes  []string
}

// curated is the study list -which all runs.
func curated() []study {
	announce := func(d time.Duration) map[string]any { return map[string]any{"AnnounceInterval": d} }
	return []study{
		{key: "interval", header: "synchronization-interval sweep (Γ = 2·r_max·S)"},
		{key: "domains", header: "domain-count sweep under one Byzantine grandmaster",
			footnotes: []string{"(M = 2 cannot mask any Byzantine fault: N < 2f+1)"}},
		{key: "dynamic", header: "fully dynamic 802.1AS over the redundant mesh"},
		{key: "bmca", header: "BMCA re-election vs static external port configuration (announce 1s)",
			fields: announce(time.Second)},
		{key: "bmca-500ms", header: "BMCA re-election, announce 500ms", experiment: "bmca",
			fields: announce(500 * time.Millisecond)},
		{key: "bmca-250ms", header: "BMCA re-election, announce 250ms", experiment: "bmca",
			fields: announce(250 * time.Millisecond)},
		{key: "voting", header: "2f+1 fail-consistent monitor voting (§II-A)"},
		{key: "tas", header: "TSN egress (802.1Qbv + preemption) vs commodity FIFO"},
		{key: "recovery", header: "§IV future work: GNU/Linux vs unikernel recovery"},
	}
}

// selectStudies resolves -which: "all" is the curated list, a curated key
// selects itself and its "key-*" variants, and any other name must be a
// registry name.
func selectStudies(which string) ([]study, error) {
	var selected []study
	for _, s := range curated() {
		if which == "all" || which == s.key || strings.HasPrefix(s.key, which+"-") {
			selected = append(selected, s)
		}
	}
	if len(selected) > 0 {
		return selected, nil
	}
	exp, err := experiments.Lookup(which)
	if err != nil {
		return nil, err
	}
	return []study{{key: which, header: exp.Description()}}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master random seed")
	which := fs.String("which", "all", "study selection: all (the curated list), a curated key (interval|domains|dynamic|bmca|voting|tas|recovery) or any registry name")
	parallel := fs.Int("parallel", 0, "worker count for independent studies and for studies with a parallel knob (0 = GOMAXPROCS, 1 = sequential)")
	shards := fs.Int("shards", 1, "PDES shard count for shard-aware studies (1 = legacy single scheduler; results are bit-identical)")
	warmStart := fs.Bool("warm-start", false, "fork sweep points from a shared warm-state snapshot where eligible (identical tables; prefix-hash mismatches fall back to cold runs)")
	configPath := fs.String("config", "", "JSON config file overlaid onto the selected study's config (requires a single-study -which)")
	metricsPath := fs.String("metrics", "", "write a JSONL metrics snapshot (one line per metric, tagged per study) to this file")
	failOnAnomaly := fs.Bool("fail-on-anomaly", false, "exit non-zero when a study reports an anomaly verdict (a measured outcome the analytic bound does not predict)")
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
			fmt.Fprintln(os.Stderr, "sweep:", perr)
		}
	}()

	selected, err := selectStudies(*which)
	if err != nil {
		return err
	}
	var overlay []byte
	if *configPath != "" {
		if len(selected) != 1 {
			return fmt.Errorf("-config requires a single-study -which selection, got %d studies", len(selected))
		}
		if overlay, err = os.ReadFile(*configPath); err != nil {
			return err
		}
	}

	ctx := context.Background()
	campaign := obs.NewRegistry()
	runs := make([]runner.Run, len(selected))
	for i, s := range selected {
		name := s.experiment
		if name == "" {
			name = s.key
		}
		exp, err := experiments.Lookup(name)
		if err != nil {
			return err
		}
		// The flag-built config round-trips through the registry's strict
		// decode path (shared with the job server), with the -config
		// overlay merged on top; runtime handles (campaign metrics,
		// warm-start) are re-attached after decoding.
		base := experiments.SetFields(exp.DefaultConfig(*seed), map[string]any{"Parallel": *parallel, "Shards": *shards})
		cfg, err := experiments.MergeConfig(exp, experiments.SetFields(base, s.fields), overlay)
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		cfg = experiments.SetFields(cfg, map[string]any{"Metrics": campaign})
		if *warmStart {
			cfg, _ = experiments.EnableWarmStart(cfg, campaign, nil)
		}
		runs[i] = runner.Run{Name: s.key, Do: func(ctx context.Context) (any, error) {
			res, err := exp.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return block{key: s.key, text: render(s, res), res: res}, nil
		}}
	}

	outcomes := runner.New(*parallel).WithMetrics(campaign).Execute(ctx, runs)
	blocks, err := runner.Values[block](outcomes)
	if err != nil {
		return err
	}
	anomalies := 0
	snaps := make([]obs.Tagged, 0, len(blocks)+1)
	for _, b := range blocks {
		fmt.Print(b.text)
		if c, ok := b.res.(experiments.ObsCarrier); ok {
			snaps = append(snaps, obs.Tagged{Run: b.key, Metrics: c.ObsMetrics()})
		}
		if a, ok := b.res.(interface{ Anomalies() int }); ok {
			anomalies += a.Anomalies()
		}
	}
	if *warmStart {
		fmt.Println(runner.WarmSummary(campaign))
	}
	if *metricsPath != "" {
		snaps = append(snaps, obs.Tagged{Run: "runner", Metrics: campaign.Snapshot()})
		if err := obs.WriteJSONLFile(*metricsPath, snaps...); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsPath)
	}
	if *failOnAnomaly && anomalies > 0 {
		return fmt.Errorf("%d anomaly verdict(s): measured outcome contradicts the analytic bound", anomalies)
	}
	return nil
}

// block is one study's rendered output plus its result, kept so -metrics
// can snapshot carriers after the deterministic ordering is restored.
type block struct {
	key  string
	text string
	res  experiments.Result
}

// render produces one study's output block: header, summary, table,
// footnotes.
func render(s study, res experiments.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", s.header)
	fmt.Fprintf(&b, "  %s\n", res.Summary())
	b.WriteString(experiments.RenderTable(res.Rows(), "  "))
	for _, note := range s.footnotes {
		fmt.Fprintf(&b, "  %s\n", note)
	}
	b.WriteString("\n")
	return b.String()
}
