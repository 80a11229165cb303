// Command faultinjection reproduces the paper's 24 h fault-injection
// experiment (Fig. 4a, Fig. 4b and Fig. 5): rotating grandmaster
// shutdowns, random redundant-VM shutdowns, CLOCK_SYNCTIME takeovers by
// the hypervisor's dependent clock, and the transient ptp4l software
// faults — reporting the measured precision series, its distribution, and
// the event window around the maximum spike.
//
// Usage:
//
//	faultinjection [-seed N] [-duration 24h] [-gm-period 30m] [-chaos plan.json] [-holdover-window 2s]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/experiments"
	"gptpfta/internal/measure"
	"gptpfta/internal/obs"
	"gptpfta/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultinjection:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultinjection", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master random seed")
	duration := fs.Duration("duration", 24*time.Hour, "campaign duration")
	gmPeriod := fs.Duration("gm-period", 30*time.Minute, "interval between grandmaster shutdowns")
	fig5 := fs.Duration("fig5-window", time.Hour, "event window width around the max spike")
	chaosPath := fs.String("chaos", "", "network chaos scenario plan (JSON) to run alongside the VM campaign")
	holdover := fs.Duration("holdover-window", 0, "arm the ptp4l holdover watchdog with this quorum-starvation window (0 = off)")
	csvDir := fs.String("csv", "", "directory to write samples.csv, windows.csv and histogram.csv into")
	metricsPath := fs.String("metrics", "", "write a JSONL metrics snapshot (one line per metric) to this file")
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
			fmt.Fprintln(os.Stderr, "faultinjection:", perr)
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

	fmt.Printf("=== Fig. 4 / Fig. 5 — fault injection, seed %d, duration %v ===\n", *seed, *duration)
	res, err := experiments.FaultInjection(experiments.FaultInjectionConfig{
		Seed:           *seed,
		Duration:       *duration,
		GMPeriod:       *gmPeriod,
		ChaosPlan:      plan,
		HoldoverWindow: *holdover,
	})
	if err != nil {
		return err
	}

	fmt.Printf("bound parameters: E = %v, Gamma = %v, Pi = %v, gamma = %v, Pi+gamma = %v\n",
		res.ReadingError, res.DriftOffset, res.Bound, res.Gamma, res.Bound+res.Gamma)
	fmt.Println(res.Summary())

	fmt.Println("\n--- Fig. 4a: measured precision, 120 s windows (log scale) ---")
	fmt.Print(experiments.RenderSeries(res.Windows, res.Bound, res.Gamma, 18))

	fmt.Println("\n--- Fig. 4b: distribution of per-second precision ---")
	fmt.Printf("%s\n", res.Stats)
	hist := measure.ComputeHistogram(res.Samples, 50, 1000)
	fmt.Print(experiments.RenderHistogram(hist, 60))

	w := res.Fig5Window(*fig5)
	fmt.Printf("\n--- Fig. 5: %v window around the max spike (%.0f ns at t=%s) ---\n",
		*fig5, w.SpikeNS, time.Duration(w.SpikeAtSec*float64(time.Second)).Truncate(time.Second))
	fmt.Print(experiments.RenderEvents(w.Events, w.FromSec))

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, res, hist); err != nil {
			return err
		}
		fmt.Printf("\nCSV series written to %s\n", *csvDir)
	}
	if *metricsPath != "" {
		if err := obs.WriteJSONLFile(*metricsPath, obs.Tagged{Run: "faultinjection", Metrics: res.ObsMetrics()}); err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metricsPath)
	}
	return nil
}

func writeCSVs(dir string, res *experiments.FaultInjectionResult, hist measure.Histogram) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("samples.csv", func(f *os.File) error {
		return measure.WriteSamplesCSV(f, res.Samples)
	}); err != nil {
		return err
	}
	if err := write("windows.csv", func(f *os.File) error {
		return measure.WriteWindowsCSV(f, res.Windows)
	}); err != nil {
		return err
	}
	if err := write("histogram.csv", func(f *os.File) error {
		return measure.WriteHistogramCSV(f, hist)
	}); err != nil {
		return err
	}
	return write("events.csv", func(f *os.File) error {
		return res.Events.WriteCSV(f)
	})
}
