// Command replay re-renders a precision series exported by `sweep -which
// faultinjection -csv out` (out/faultinjection/samples.csv): the ASCII
// chart, the distribution and the summary statistics.
//
// Usage:
//
//	replay -samples out/faultinjection/samples.csv [-bound 11.42us] [-gamma 856ns] [-window 2m]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/measure"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	path := fs.String("samples", "", "samples.csv written by sweep -which faultinjection -csv dir, as dir/faultinjection/samples.csv (required)")
	bound := fs.Duration("bound", 11420*time.Nanosecond, "precision bound Pi to draw")
	gamma := fs.Duration("gamma", 856*time.Nanosecond, "measurement error gamma to draw")
	window := fs.Duration("window", 2*time.Minute, "aggregation window width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-samples is required")
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := measure.ParseSamplesCSV(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no samples in %s", *path)
	}

	fmt.Printf("%d samples from %s\n", len(samples), *path)
	fmt.Println(measure.ComputeStats(samples))
	fmt.Printf("p50 = %.0f ns, p99 = %.0f ns, p99.9 = %.0f ns\n",
		measure.Quantile(samples, 0.5), measure.Quantile(samples, 0.99),
		measure.Quantile(samples, 0.999))
	fmt.Printf("violations beyond Pi+gamma = %v: %d\n\n", *bound+*gamma,
		measure.ViolationCount(samples, float64(*bound+*gamma)))

	windows := measure.Aggregate(samples, *window)
	fmt.Print(experiments.RenderSeries(windows, *bound, *gamma, 18))
	fmt.Println()
	hist := measure.ComputeHistogram(samples, 50, 1000)
	fmt.Print(experiments.RenderHistogram(hist, 60))
	return nil
}
