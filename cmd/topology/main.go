// Command topology prints the wired testbed — the textual form of the
// paper's Fig. 2 — and optionally writes or reads a JSON configuration so
// that experiment setups can be version-controlled and shared. -save writes
// the full core.Config, the site-level WAN tier and the holdover knobs
// included, so -config on the saved file rebuilds the same system.
//
// Usage:
//
//	topology [-seed N] [-config file.json] [-save file.json] [-diverse]
//	         [-sites N] [-nodes N] [-vms N] [-wan]
//
// -sites 2+ renders the wide-area fabric instead of the single-site paper
// testbed: each site as a cluster of switches with its gateway uplinks, the
// WAN gateway chain annotated with every span's extra-delay/asymmetry
// setting, and (with -wan) the site-level FTA parameters — quorum budget,
// resync interval, holdover window and the delay-drift process.
package main

import (
	"flag"
	"fmt"
	"os"

	"gptpfta/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topology:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master random seed")
	configPath := fs.String("config", "", "load the configuration from this JSON file")
	savePath := fs.String("save", "", "write the effective configuration to this JSON file")
	diverse := fs.Bool("diverse", false, "diversify grandmaster kernels")
	sites := fs.Int("sites", 1, "number of sites (2+ builds the wide-area gateway chain)")
	nodes := fs.Int("nodes", 4, "switches per site")
	vms := fs.Int("vms", 2, "clock-sync VMs per switch")
	wanFTA := fs.Bool("wan", false, "enable the site-level FTA tier (multi-site only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg core.Config
	if *configPath != "" {
		loaded, err := core.LoadConfigFile(*configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	} else if *sites > 1 || *nodes != 4 || *vms != 2 {
		cfg = core.ScaleConfig(*seed, *sites, *nodes, *vms, 1)
	} else {
		cfg = core.NewConfig(*seed)
		if *diverse {
			cfg.DiversifyKernels("c41")
		}
	}
	if *wanFTA {
		if cfg.NumSites() < 2 {
			return fmt.Errorf("-wan needs a multi-site fabric (use -sites 2+)")
		}
		cfg.WanSync.Enabled = true
		if cfg.WanSync.F == 0 {
			cfg.WanSync.F = cfg.F
		}
	}

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	fmt.Print(sys.DescribeTopology())

	if *savePath != "" {
		if err := cfg.SaveConfigFile(*savePath); err != nil {
			return err
		}
		fmt.Printf("\nconfiguration written to %s\n", *savePath)
	}
	return nil
}
