// Command sweep is the one experiment surface: it runs any registered
// study by name, dispatching it through the experiments registry and
// fanning independent studies across the runner's worker pool. Output order
// is deterministic regardless of completion order.
//
// A curated list covers the design-space studies beyond the paper's
// headline figures — synchronization-interval and domain-count sweeps, the
// dynamic 802.1AS and BMCA ablations, the 2f+1 fail-consistent voting
// variant, the TSN egress study and the §IV recovery comparison — with its
// own headers and footnotes; -which all runs exactly that list, and a
// curated key such as "bmca" also selects its "bmca-*" variants. -which
// paper selects the paper's evaluation at its 1 h and 24 h horizons: the
// §III-A3 bounds, Fig. 3a/3b, Fig. 4a/4b and Fig. 5, and the A1–A3
// ablations. Any other registry name (resilience, faultinjection, attacks,
// wansites, netchaos, ...) runs on its seeded default config, headed by the
// registry's description. A result that reproduces a paper figure prints
// the figure after its summary in place of the generic table.
//
// Usage:
//
//	sweep [-seed N[,N...]] [-parallel N] [-config file.json]
//	      [-fail-on-anomaly] [-metrics file.jsonl] [-csv dir]
//	      [-which all|paper|<curated key>|<registry name>]
//
// -seed and -parallel apply to every study whose config has the field;
// studies without it ignore it. A -seed list of distinct seeds runs every
// selected study once per seed, each block headed and tagged with its seed.
//
// A study forks its sweep points from one shared convergence-prefix
// snapshot exactly when they share a prefix (the chaos, identical-kernel
// attack and wansites sweeps); there is no flag for it, and the tables are
// bit-identical to cold runs. -metrics records the runner's
// runner_prefix_runs, runner_forks_served and runner_cold_fallbacks.
//
// -config overlays a JSON config file onto the selected study's config
// through the registry's strict decode path (the same path the job server
// uses); it requires a single-study -which selection. Chaos plans, holdover
// windows and horizons are config fields:
//
//	sweep -which faultinjection -config examples/chaos-smoke.json
//
// -csv writes every study's generic table as <dir>/<key>.csv; a result
// carrying a raw series (faultinjection) also writes <dir>/<key>/samples.csv,
// windows.csv, histogram.csv and events.csv, which cmd/replay reads.
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
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// paper is the -which paper selection: the paper's evaluation and its
// A1–A3 ablations at registry defaults, which are the paper's horizons.
func paper() []study {
	return []study{
		{key: "paper-bounds", header: "E1 — bound methodology (§III-A3/B)", experiment: "bounds"},
		{key: "paper-fig3a", header: "E2 — Fig. 3a (identical kernels)", experiment: "resilience"},
		{key: "paper-fig3b", header: "E3 — Fig. 3b (diverse kernels)", experiment: "resilience",
			fields: map[string]any{"DiverseKernels": true}},
		{key: "paper-fig4", header: "E4/E5/E6 — Fig. 4a/4b and Fig. 5 (fault injection)", experiment: "faultinjection"},
		{key: "paper-ablation-baseline", header: "A1 — clients-only aggregation without start-up sync", experiment: "baseline"},
		{key: "paper-ablation-single-domain", header: "A2 — single-domain gPTP vs the multi-domain FTA", experiment: "single-domain"},
		{key: "paper-ablation-flag-policy", header: "A3 — FTSHMEM validity-flag policies", experiment: "flag-policy"},
	}
}

// selectStudies resolves -which: "all" is the curated list, a curated or
// paper key selects itself and its "key-*" variants (so "paper" selects
// every paper-* study), and any other name must be a registry name.
func selectStudies(which string) ([]study, error) {
	if which == "all" {
		return curated(), nil
	}
	var selected []study
	for _, s := range append(curated(), paper()...) {
		if which == s.key || strings.HasPrefix(s.key, which+"-") {
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
	seeds := seedList{1}
	fs.Var(&seeds, "seed", "master random seed, or a comma-separated list running every selected study once per seed")
	which := fs.String("which", "all", "study selection: all (the curated list), paper (the paper's evaluation), a curated key (interval|domains|dynamic|bmca|voting|tas|recovery) or any registry name")
	parallel := fs.Int("parallel", 0, "worker count for independent studies and for studies with a parallel knob (0 = GOMAXPROCS, 1 = sequential)")
	configPath := fs.String("config", "", "JSON config file overlaid onto the selected study's config (requires a single-study -which)")
	metricsPath := fs.String("metrics", "", "write a JSONL metrics snapshot (one line per metric, tagged per study) to this file")
	csvDir := fs.String("csv", "", "directory to write <key>.csv per study (plus <key>/ raw-series CSVs for results carrying one) into")
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
	runs := make([]runner.Run, 0, len(selected)*len(seeds))
	for _, s := range selected {
		name := s.experiment
		if name == "" {
			name = s.key
		}
		exp, err := experiments.Lookup(name)
		if err != nil {
			return err
		}
		for _, seed := range seeds {
			s := s
			if len(seeds) > 1 {
				s.key = fmt.Sprintf("%s/seed/%d", s.key, seed)
				s.header = fmt.Sprintf("%s — seed %d", s.header, seed)
			}
			// The flag-built config round-trips through the registry's
			// strict decode path (shared with the job server), with the
			// -config overlay merged on top; the campaign metrics registry
			// is re-attached after decoding.
			base := experiments.SetFields(exp.DefaultConfig(seed), map[string]any{"Parallel": *parallel})
			cfg, err := experiments.MergeConfig(exp, experiments.SetFields(base, s.fields), overlay)
			if err != nil {
				return fmt.Errorf("%s: %w", s.key, err)
			}
			cfg = experiments.SetFields(cfg, map[string]any{"Metrics": campaign})
			runs = append(runs, runner.Run{Name: s.key, Do: func(ctx context.Context) (any, error) {
				res, err := exp.Run(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return block{key: s.key, text: render(s, res), res: res}, nil
			}})
		}
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
	if *csvDir != "" {
		for _, b := range blocks {
			if err := writeCSVs(*csvDir, b); err != nil {
				return err
			}
		}
		fmt.Printf("CSV tables written to %s\n", *csvDir)
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
// and -csv can use it after the deterministic ordering is restored.
type block struct {
	key  string
	text string
	res  experiments.Result
}

// render produces one study's output block: header, summary, the figure
// (or, for a result that reproduces none, the generic table), footnotes.
func render(s study, res experiments.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", s.header)
	fmt.Fprintf(&b, "  %s\n", res.Summary())
	if f, ok := res.(experiments.Figurer); ok {
		b.WriteString(f.Figure())
	} else {
		b.WriteString(experiments.RenderTable(res.Rows(), "  "))
	}
	for _, note := range s.footnotes {
		fmt.Fprintf(&b, "  %s\n", note)
	}
	b.WriteString("\n")
	return b.String()
}

// writeCSVs writes a block's Rows() as <dir>/<key>.csv and, for a result
// carrying a raw series, the series CSVs into <dir>/<key>/.
func writeCSVs(dir string, b block) error {
	path := filepath.Join(dir, b.key+".csv")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(b.res.Rows()); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if s, ok := b.res.(interface{ WriteCSVs(dir string) error }); ok {
		return s.WriteCSVs(filepath.Join(dir, b.key))
	}
	return nil
}

// seedList is the -seed flag: one seed or a comma-separated list of distinct
// seeds (a repeat would run a study twice under one key).
type seedList []int64

func (l *seedList) String() string {
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}

func (l *seedList) Set(v string) error {
	*l = (*l)[:0]
	for _, part := range strings.Split(v, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", part, err)
		}
		if slices.Contains(*l, s) {
			return fmt.Errorf("seed %d repeated", s)
		}
		*l = append(*l, s)
	}
	return nil
}
