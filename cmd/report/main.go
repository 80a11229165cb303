// Command report regenerates every experiment in the paper's evaluation in
// one run — the bound methodology, Fig. 3a, Fig. 3b, Fig. 4a/4b, Fig. 5
// and the ablations — at a configurable time scale, and prints a
// paper-vs-measured comparison suitable for EXPERIMENTS.md. Independent
// studies fan out across the runner's worker pool; the report order is
// fixed regardless of completion order. With -csv every result's generic
// Rows() table is written as one CSV file per study.
//
// Usage:
//
//	report [-seed N] [-scale 0.25] [-full] [-parallel N] [-shards N] [-warm-start]
//	       [-csv dir] [-config study=file.json ...]
//
// -shards runs every study on the sharded PDES kernel; the report is
// bit-identical at every shard count.
//
// -scale compresses the experiment horizons (1 → the paper's 1 h / 24 h);
// -full is shorthand for -scale 1. -config overlays a JSON config file onto
// the named study's config through the registry's strict decode path (the
// same path the job server uses), so the same JSON drives both the CLI and
// POST /v1/jobs.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
	"gptpfta/internal/prof"
	"gptpfta/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// section is one report entry: the rendered text block plus the result it
// came from, kept for the generic CSV emission.
type section struct {
	name string
	text string
	res  experiments.Result
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master random seed")
	scale := fs.Float64("scale", 0.05, "time-scale factor (1 = the paper's full horizons)")
	full := fs.Bool("full", false, "run the paper's full horizons (1 h attack run, 24 h fault injection)")
	parallel := fs.Int("parallel", 0, "worker count for independent studies (0 = GOMAXPROCS, 1 = sequential)")
	shards := fs.Int("shards", 1, "PDES shard count for every study (1 = legacy single scheduler; results are bit-identical)")
	warmStart := fs.Bool("warm-start", false, "fork warm-eligible studies from convergence-prefix snapshots (identical results; ineligible studies fall back to cold runs)")
	csvDir := fs.String("csv", "", "directory to write one <study>.csv per result into")
	metricsPath := fs.String("metrics", "", "write a JSONL metrics snapshot (one line per metric, tagged per study) to this file")
	overlays := map[string]json.RawMessage{}
	fs.Func("config", "overlay a JSON config onto one study: study=file.json (repeatable; studies: bounds, fig3a, fig3b, fig4, ablation-*)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want study=file.json, got %q", v)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		overlays[name] = raw
		return nil
	})
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
			fmt.Fprintln(os.Stderr, "report:", perr)
		}
	}()
	if *full {
		*scale = 1
	}
	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %v", *scale)
	}
	attackDur := time.Duration(float64(time.Hour) * *scale)
	injectDur := time.Duration(float64(24*time.Hour) * *scale)
	if attackDur < 8*time.Minute {
		attackDur = 8 * time.Minute
	}
	if injectDur < 20*time.Minute {
		injectDur = 20 * time.Minute
	}

	fmt.Printf("### reproduction report — seed %d, scale %.2f (attack run %v, fault injection %v)\n\n",
		*seed, *scale, attackDur, injectDur)

	type job struct {
		name   string
		exp    string
		cfg    any
		render func(experiments.Result) string
	}
	campaign := obs.NewRegistry()
	jobs := []job{
		{"bounds", "bounds",
			experiments.BoundsConfig{Seed: *seed, Shards: *shards},
			renderBounds},
		{"fig3a", "resilience",
			experiments.CyberResilienceConfig{Seed: *seed, Duration: attackDur, Shards: *shards},
			func(r experiments.Result) string { return renderFig3(r, false) }},
		{"fig3b", "resilience",
			experiments.CyberResilienceConfig{Seed: *seed, Duration: attackDur, DiverseKernels: true, Shards: *shards},
			func(r experiments.Result) string { return renderFig3(r, true) }},
		{"fig4", "faultinjection",
			experiments.FaultInjectionConfig{Seed: *seed, Duration: injectDur, Shards: *shards}, renderFig4},
		{"ablation-baseline", "baseline", experiments.BaselineConfig{Seed: *seed, Shards: *shards}, renderSummary},
		{"ablation-single-domain", "single-domain", experiments.BaselineConfig{Seed: *seed, Shards: *shards}, renderSummary},
		{"ablation-flag-policy", "flag-policy", experiments.BaselineConfig{Seed: *seed, Shards: *shards}, renderSummary},
	}
	known := map[string]bool{}
	for _, j := range jobs {
		known[j.name] = true
	}
	for name := range overlays {
		if !known[name] {
			return fmt.Errorf("-config: unknown study %q", name)
		}
	}

	runs := make([]runner.Run, len(jobs))
	for i, j := range jobs {
		j := j
		exp, err := experiments.Lookup(j.exp)
		if err != nil {
			return err
		}
		// Every config round-trips through the registry's strict decode
		// path — the CLI and the job server share one wire contract —
		// with the study's -config overlay (if any) merged on top.
		// Runtime handles (campaign metrics, warm-start) are re-attached
		// after decoding; they do not survive the wire by design.
		cfg, err := experiments.MergeConfig(exp, j.cfg, overlays[j.name])
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if *warmStart {
			cfg, _ = experiments.EnableWarmStart(cfg, campaign, nil)
		}
		runs[i] = runner.Run{Name: j.name, Do: func(ctx context.Context) (any, error) {
			res, err := exp.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return section{name: j.name, text: j.render(res), res: res}, nil
		}}
	}
	outcomes := runner.New(*parallel).WithMetrics(campaign).Execute(context.Background(), runs)
	sections, err := runner.Values[section](outcomes)
	if err != nil {
		return err
	}

	fmt.Println("## E1 — bound methodology (§III-A3/B)")
	fmt.Print(sections[0].text)
	fmt.Println("## E2 — Fig. 3a (identical kernels)")
	fmt.Print(sections[1].text)
	fmt.Println("## E3 — Fig. 3b (diverse kernels)")
	fmt.Print(sections[2].text)
	fmt.Println("## E4/E5/E6 — Fig. 4a/4b and Fig. 5 (fault injection)")
	fmt.Print(sections[3].text)
	fmt.Println("## A1/A2/A3 — ablations")
	for _, s := range sections[4:] {
		fmt.Print(s.text)
	}
	if *warmStart {
		fmt.Println(runner.WarmSummary(campaign))
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, sections); err != nil {
			return err
		}
		fmt.Printf("\nCSV tables written to %s\n", *csvDir)
	}
	if *metricsPath != "" {
		snaps := make([]obs.Tagged, 0, len(sections)+1)
		for _, s := range sections {
			if c, ok := s.res.(experiments.ObsCarrier); ok {
				snaps = append(snaps, obs.Tagged{Run: s.name, Metrics: c.ObsMetrics()})
			}
		}
		snaps = append(snaps, obs.Tagged{Run: "runner", Metrics: campaign.Snapshot()})
		if err := obs.WriteJSONLFile(*metricsPath, snaps...); err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metricsPath)
	}
	return nil
}

// writeCSVs emits every section's Rows() — the same generic shape for
// every study, no per-type special cases.
func writeCSVs(dir string, sections []section) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range sections {
		f, err := os.Create(filepath.Join(dir, s.name+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.WriteAll(s.res.Rows()); err != nil {
			f.Close()
			return fmt.Errorf("write %s.csv: %w", s.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func renderBounds(r experiments.Result) string {
	res := r.(*experiments.BoundsResult)
	var b strings.Builder
	for _, row := range res.Table() {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	fmt.Fprintln(&b, "  paper: d_min=4120ns d_max=9188ns E=5068ns Pi=12.636us gamma=1313ns")
	fmt.Fprintln(&b)
	return b.String()
}

func renderFig3(r experiments.Result, diverse bool) string {
	res := r.(*experiments.CyberResilienceResult)
	paper := "paper: second compromise at 00:31:52 breaks the bound; nodes lose synchronization"
	if diverse {
		paper = "paper: second exploit fails; precision stays within Pi+gamma"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %s\n", res.Summary())
	for _, e := range res.ExploitResults {
		fmt.Fprintf(&b, "    %s\n", e.String())
	}
	fmt.Fprintf(&b, "  %s\n", paper)
	b.WriteString(indent(experiments.RenderSeries(res.Windows, res.Bound, res.Gamma, 14)))
	fmt.Fprintln(&b)
	return b.String()
}

func renderFig4(r experiments.Result) string {
	res := r.(*experiments.FaultInjectionResult)
	var b strings.Builder
	fmt.Fprintf(&b, "  %s\n", res.Summary())
	fmt.Fprintln(&b, "  paper: avg 322ns ± 421ns, min 33ns, max 10.08us within Pi+gamma=12.28us;")
	fmt.Fprintln(&b, "         94 fail-silent VMs (48 GM), 2992 tx-ts timeouts, 347 deadline misses over 24h")
	b.WriteString(indent(experiments.RenderSeries(res.Windows, res.Bound, res.Gamma, 14)))
	fmt.Fprintln(&b, "  distribution:")
	b.WriteString(indent(experiments.RenderHistogram(measure.ComputeHistogram(res.Samples, 50, 1000), 40)))

	w := res.Fig5Window(time.Hour)
	fmt.Fprintf(&b, "  event window around the %.0f ns spike:\n", w.SpikeNS)
	b.WriteString(experiments.RenderEvents(w.Events, w.FromSec))
	fmt.Fprintln(&b)
	return b.String()
}

func renderSummary(r experiments.Result) string {
	return "  " + r.Summary() + "\n"
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "  " + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += "  " + s[start:]
	}
	return out
}
