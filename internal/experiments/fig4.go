package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/faultinject"
	"gptpfta/internal/gptp"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
	"gptpfta/internal/ptp4l"
	"gptpfta/internal/runner"
	"gptpfta/internal/sim"
)

// FaultInjectionConfig parameterises the Fig. 4/5 experiment. Durations are
// nanoseconds on the wire.
type FaultInjectionConfig struct {
	Seed int64 `json:"seed"`
	// Duration of the campaign; the paper runs 24 h.
	Duration time.Duration `json:"duration,omitempty"`
	// GMPeriod between consecutive grandmaster shutdowns (rotating). The
	// default (30 min) lands at the paper's ≈48 GM failures over 24 h.
	GMPeriod time.Duration `json:"gm_period,omitempty"`
	// Redundant-VM random failure rate bounds, per hour per node.
	RedundantMinPerHour float64 `json:"redundant_min_per_hour,omitempty"`
	RedundantMaxPerHour float64 `json:"redundant_max_per_hour,omitempty"`
	// Downtime of a failed VM before reboot.
	Downtime time.Duration `json:"downtime,omitempty"`
	// ChaosPlan optionally composes a network chaos scenario with the VM
	// campaign; its actions are counted in Injection.NetworkFaults.
	ChaosPlan *chaos.Plan `json:"chaos_plan,omitempty"`
	// HoldoverWindow arms the ptp4l holdover watchdog for chaos-composed
	// campaigns (zero keeps the paper's free-run default).
	HoldoverWindow time.Duration `json:"holdover_window,omitempty"`
	// Metrics optionally instruments the run's pool (fork accounting).
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares the fault-free convergence prefix (up to
	// the injector's start minus a guard) through a campaign cache (the job
	// server's LRU); the run forks from it only then, and runs cold without
	// one. A chaos plan acting before the boundary (or anchored relative to
	// engine start) also makes it run cold.
	Snapshots runner.SnapshotCache `json:"-"`
}

// Validate implements Validator. The injector's own Config.validate rejects
// the full fault-hypothesis space at run time; this check covers the fields
// before defaulting can mask them.
func (c FaultInjectionConfig) Validate() error {
	if err := checkDurations(
		field{"duration", c.Duration},
		field{"gm_period", c.GMPeriod},
		field{"downtime", c.Downtime},
		field{"holdover_window", c.HoldoverWindow}); err != nil {
		return err
	}
	if err := firstErr(
		checkNonNegative("redundant_min_per_hour", c.RedundantMinPerHour),
		checkNonNegative("redundant_max_per_hour", c.RedundantMaxPerHour)); err != nil {
		return err
	}
	if c.RedundantMinPerHour > 0 && c.RedundantMaxPerHour > 0 &&
		c.RedundantMinPerHour > c.RedundantMaxPerHour {
		return fmt.Errorf("redundant_min_per_hour (%v) exceeds redundant_max_per_hour (%v)",
			c.RedundantMinPerHour, c.RedundantMaxPerHour)
	}
	return checkPlan(c.ChaosPlan)
}

func (c FaultInjectionConfig) withDefaults() FaultInjectionConfig {
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	if c.GMPeriod <= 0 {
		c.GMPeriod = 30 * time.Minute
	}
	if c.RedundantMinPerHour <= 0 {
		c.RedundantMinPerHour = 0.25
	}
	if c.RedundantMaxPerHour <= 0 {
		c.RedundantMaxPerHour = 1
	}
	if c.Downtime <= 0 {
		c.Downtime = 45 * time.Second
	}
	return c
}

// FaultInjectionResult is the Fig. 4a/4b (and Fig. 5 input) output.
type FaultInjectionResult struct {
	ObsSnapshot
	Config FaultInjectionConfig

	Samples []measure.Sample
	Windows []measure.Window // 120 s min/avg/max, as plotted in Fig. 4a
	Stats   measure.Stats    // Fig. 4b caption numbers

	ReadingError time.Duration
	DriftOffset  time.Duration
	Bound        time.Duration // Π
	Gamma        time.Duration

	Injection faultinject.Stats
	// Transient software fault totals (the paper reports 2992 and 347).
	TxTimestampTimeouts int
	DeadlineMisses      int
	Takeovers           int

	Violations int // samples beyond Π+γ after start-up

	Events *core.EventLog
}

// Summary renders the §III-C narrative numbers.
func (r FaultInjectionResult) Summary() string {
	return fmt.Sprintf(
		"fault injection over %v: Π = %v, γ = %v; precision %s; %s; %d takeovers; %d tx-timestamp timeouts, %d deadline misses; %d samples beyond Π+γ",
		r.Config.Duration, r.Bound, r.Gamma, r.Stats, r.Injection.String(),
		r.Takeovers, r.TxTimestampTimeouts, r.DeadlineMisses, r.Violations)
}

// Rows renders the campaign's headline numbers.
func (r *FaultInjectionResult) Rows() [][]string {
	return [][]string{
		{"mean_ns", "std_ns", "min_ns", "max_ns", "samples", "violations",
			"bound_ns", "gamma_ns", "vm_failures", "takeovers", "tx_timeouts", "deadline_misses"},
		{
			fmt.Sprintf("%.0f", r.Stats.MeanNS),
			fmt.Sprintf("%.0f", r.Stats.StdNS),
			fmt.Sprintf("%.0f", r.Stats.MinNS),
			fmt.Sprintf("%.0f", r.Stats.MaxNS),
			strconv.Itoa(r.Stats.Count),
			strconv.Itoa(r.Violations),
			strconv.FormatInt(r.Bound.Nanoseconds(), 10),
			strconv.FormatInt(r.Gamma.Nanoseconds(), 10),
			strconv.Itoa(r.Injection.TotalFailures),
			strconv.Itoa(r.Takeovers),
			strconv.Itoa(r.TxTimestampTimeouts),
			strconv.Itoa(r.DeadlineMisses),
		},
	}
}

// Figure implements Figurer: the bound parameters, Fig. 4a's precision
// series, Fig. 4b's distribution and Fig. 5's one-hour event window around
// the maximum spike.
func (r *FaultInjectionResult) Figure() string {
	var b strings.Builder
	writePlanLine(&b, r.Config.ChaosPlan)
	fmt.Fprintf(&b, "=== Fig. 4 / Fig. 5 — fault injection, seed %d, duration %v ===\n", r.Config.Seed, r.Config.Duration)
	fmt.Fprintf(&b, "bound parameters: E = %v, Gamma = %v, Pi = %v, gamma = %v, Pi+gamma = %v\n",
		r.ReadingError, r.DriftOffset, r.Bound, r.Gamma, r.Bound+r.Gamma)
	b.WriteString("paper: avg 322ns ± 421ns, min 33ns, max 10.08us within Pi+gamma=12.28us;\n")
	b.WriteString("       94 fail-silent VMs (48 GM), 2992 tx-ts timeouts, 347 deadline misses over 24h\n")

	b.WriteString("\n--- Fig. 4a: measured precision, 120 s windows (log scale) ---\n")
	b.WriteString(RenderSeries(r.Windows, r.Bound, r.Gamma, 18))

	b.WriteString("\n--- Fig. 4b: distribution of per-second precision ---\n")
	fmt.Fprintf(&b, "%s\n", r.Stats)
	b.WriteString(RenderHistogram(r.histogram(), 60))

	w := r.Fig5Window(time.Hour)
	fmt.Fprintf(&b, "\n--- Fig. 5: %v window around the max spike (%.0f ns at t=%s) ---\n",
		time.Hour, w.SpikeNS, time.Duration(w.SpikeAtSec*float64(time.Second)).Truncate(time.Second))
	b.WriteString(RenderEvents(w.Events, w.FromSec))
	return b.String()
}

// histogram is Fig. 4b's binning: 50 ns buckets up to 1 µs.
func (r *FaultInjectionResult) histogram() measure.Histogram {
	return measure.ComputeHistogram(r.Samples, 50, 1000)
}

// WriteCSVs writes the raw series into dir: samples.csv (the per-second
// precision that cmd/replay reads back), windows.csv, histogram.csv and
// events.csv.
func (r *FaultInjectionResult) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"samples.csv", func(w io.Writer) error { return measure.WriteSamplesCSV(w, r.Samples) }},
		{"windows.csv", func(w io.Writer) error { return measure.WriteWindowsCSV(w, r.Windows) }},
		{"histogram.csv", func(w io.Writer) error { return measure.WriteHistogramCSV(w, r.histogram()) }},
		{"events.csv", r.Events.WriteCSV},
	}
	for _, file := range files {
		f, err := os.Create(filepath.Join(dir, file.name))
		if err != nil {
			return err
		}
		if err := file.write(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", file.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// faultInjectStart is the injector's grace period: the system synchronizes
// undisturbed for this long before the first injection (and a forked run
// snapshots warmGuard before it).
const faultInjectStart = 2 * time.Minute

// FaultInjection runs the paper's §III-C campaign: rotating grandmaster
// shutdowns plus random redundant-VM shutdowns, with the dependent clock
// failing over and VMs rebooting, for the configured duration. The
// injector (and optional chaos engine) attach at the warm boundary; both
// anchor their firings to absolute instants, so where they attach does not
// change when they fire.
func FaultInjection(ctx context.Context, cfg FaultInjectionConfig) (*FaultInjectionResult, error) {
	cfg = cfg.withDefaults()
	c := campaign{
		duration:  cfg.Duration,
		diverge:   faultInjectStart,
		parallel:  1,
		metrics:   cfg.Metrics,
		snapshots: cfg.Snapshots,
	}
	if cfg.ChaosPlan != nil {
		c.plans = []*chaos.Plan{cfg.ChaosPlan}
	}
	res, ms, err := runPoints(ctx, c, []point[*FaultInjectionResult]{faultInjectionPoint("faultinjection", cfg)})
	if err != nil {
		return nil, err
	}
	res[0].Obs = ms[0]
	return res[0], nil
}

// faultInjectionPoint is one campaign (cfg defaulted) as a point:
// FaultInjection runs one, MultiSeedValidation one per seed.
func faultInjectionPoint(name string, cfg FaultInjectionConfig) point[*FaultInjectionResult] {
	sysCfg := core.NewConfig(cfg.Seed)
	sysCfg.HoldoverWindow = cfg.HoldoverWindow
	return point[*FaultInjectionResult]{name: name, cfg: sysCfg, run: cfg.run}
}

// run attaches the injection campaign to a system standing at the
// boundary, runs the remainder, and assembles the result.
func (cfg FaultInjectionConfig) run(sys *core.System, remaining time.Duration) (*FaultInjectionResult, []obs.Metric, error) {
	inj, err := faultinject.New(sys.Scheduler(), sys.Streams().Stream("inject"), sys.NodeControls(),
		faultinject.Config{
			GMPeriod:            cfg.GMPeriod,
			RedundantMinPerHour: cfg.RedundantMinPerHour,
			RedundantMaxPerHour: cfg.RedundantMaxPerHour,
			Downtime:            cfg.Downtime,
			Start:               faultInjectStart,
		})
	if err != nil {
		return nil, nil, err
	}
	if err := inj.Start(); err != nil {
		return nil, nil, err
	}
	stopChaos, err := startChaos(sys, cfg.ChaosPlan, func(chaos.Action) { inj.NoteNetworkFault() })
	if err != nil {
		return nil, nil, err
	}
	if err := sys.RunFor(remaining); err != nil {
		return nil, nil, err
	}
	inj.Stop()
	stopChaos()

	res := &FaultInjectionResult{Config: cfg, Events: sys.EventLog()}
	res.Samples = sys.Collector().Samples()
	res.Windows = measure.Aggregate(res.Samples, 2*time.Minute)
	res.Gamma = sys.Collector().Gamma()
	res.DriftOffset = sys.DriftOffset()
	res.ReadingError, _ = sys.ReadingError()
	res.Bound, _ = sys.PrecisionBound()
	res.Injection = inj.Stats()

	counts := res.Events.CountsByKindAndDetail()
	res.TxTimestampTimeouts = counts[ptp4l.EventFault+"/"+gptp.FaultTxTimestampTimeout]
	res.DeadlineMisses = counts[ptp4l.EventFault+"/"+gptp.FaultDeadlineMiss]
	res.Takeovers = res.Events.CountsByKind()["takeover"]

	res.Stats, res.Violations, _ = steadyStats(res.Samples, (30 * time.Second).Seconds(), float64(res.Bound+res.Gamma))
	return res, sys.Metrics().Snapshot(), nil
}

// EventWindow extracts the Fig. 5 view: all samples and events in the hour
// around the maximum measured precision spike.
type EventWindow struct {
	FromSec, ToSec float64
	Samples        []measure.Sample
	Events         []core.Event
	SpikeAtSec     float64
	SpikeNS        float64
}

// Fig5Window cuts the window of the given width centred on the spike.
func (r *FaultInjectionResult) Fig5Window(width time.Duration) EventWindow {
	w := EventWindow{SpikeAtSec: r.Stats.MaxAtSec, SpikeNS: r.Stats.MaxNS}
	half := width.Seconds() / 2
	w.FromSec = w.SpikeAtSec - half
	if w.FromSec < 0 {
		w.FromSec = 0
	}
	w.ToSec = w.FromSec + width.Seconds()
	for _, s := range r.Samples {
		if s.AtSec >= w.FromSec && s.AtSec <= w.ToSec {
			w.Samples = append(w.Samples, s)
		}
	}
	from := sim.Time(w.FromSec * 1e9)
	to := sim.Time(w.ToSec * 1e9)
	for _, e := range r.Events.Window(from, to) {
		switch e.Kind {
		case "vm_failed", "vm_rebooted", "takeover", ptp4l.EventFault:
			w.Events = append(w.Events, e)
		}
	}
	return w
}
