// Package prof wires Go's runtime profilers into the experiment CLIs.
// Every command accepts -cpuprofile, -memprofile and -trace flags; the
// resulting files feed `go tool pprof` / `go tool trace` so scheduler and
// network-simulation hot spots can be located without instrumenting the
// experiment code itself.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files; empty fields disable the corresponding
// profiler.
type Config struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// Flags registers -cpuprofile, -memprofile and -trace on fs and returns the
// Config they fill in when fs is parsed.
func Flags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.StringVar(&cfg.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&cfg.Trace, "trace", "", "write a runtime execution trace to this file")
	return cfg
}

// Start begins the requested profilers and returns a stop function that
// must run before process exit (it finalizes the files). Profilers that
// fail to start abort with an error before any experiment work happens.
func Start(cfg Config) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if cfg.CPUProfile != "" {
		cpuF, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	if cfg.Trace != "" {
		traceF, err = os.Create(cfg.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			cleanup()
			return nil, fmt.Errorf("prof: start trace: %w", err)
		}
	}
	return func() error {
		cleanup()
		if cfg.MemProfile == "" {
			return nil
		}
		f, err := os.Create(cfg.MemProfile)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("prof: write heap profile: %w", err)
		}
		return nil
	}, nil
}
