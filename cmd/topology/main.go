// Command topology prints the wired testbed — the textual form of the
// paper's Fig. 2.
//
// Usage:
//
//	topology [-seed N] [-diverse] [-sites N] [-nodes N] [-vms N] [-wan]
//
// -sites 2+ renders the wide-area fabric instead of the single-site paper
// testbed: each site as a cluster of switches with its gateway uplinks, the
// WAN gateway chain annotated with every span's extra-delay/asymmetry
// setting, and (with -wan) the site-level FTA parameters — quorum budget,
// resync interval, holdover window and the delay-drift process. -diverse
// applies to the paper testbed only.
package main

import (
	"errors"
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
	diverse := fs.Bool("diverse", false, "diversify grandmaster kernels (paper testbed only)")
	sites := fs.Int("sites", 1, "number of sites (2+ builds the wide-area gateway chain)")
	nodes := fs.Int("nodes", 4, "switches per site")
	vms := fs.Int("vms", 2, "clock-sync VMs per switch")
	wanFTA := fs.Bool("wan", false, "enable the site-level FTA tier (multi-site only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg core.Config
	if *sites > 1 || *nodes != 4 || *vms != 2 {
		if *diverse {
			return errors.New("-diverse applies to the paper testbed only (drop -sites, -nodes and -vms)")
		}
		cfg = core.ScaleConfig(*seed, *sites, *nodes, *vms)
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
	return nil
}
