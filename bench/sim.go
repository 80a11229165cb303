package main

import (
	"runtime/debug"
	"time"

	"gptpfta/internal/core"
	"gptpfta/internal/faultinject"
	"gptpfta/internal/measure"
	"gptpfta/internal/sim"
)

// simSize shapes one repetition of the mesh and fabric workloads: a
// fault-free converge run, then chunks timed RunFor calls of chunk each.
type simSize struct {
	converge, chunk time.Duration
	chunks          int
	// sites > 0 selects the multi-site fabric of that many 4-switch sites
	// on two shards; 0 selects the paper mesh.
	sites int
}

// fabricFull keeps the fabric small, 96 elements, on purpose. At 84 sites
// (1,008 elements, ~150 MB RSS) its speed followed the shared host's cache
// and memory load: runs of the same code spread by up to a third, while
// this size spreads about half as much as that did when interleaved with it.
var (
	meshFull   = simSize{converge: time.Minute, chunk: time.Minute, chunks: 60}
	fabricFull = simSize{converge: 2 * time.Second, chunk: 10 * time.Second, chunks: 20, sites: 8}
)

// meshFaults is the paper's §III-C fault hypothesis: a grandmaster
// shutdown every 5 minutes in rotation, 6 to 12 redundant-VM failures per
// node and hour, 30 s downtime, the first fault at 2 minutes.
var meshFaults = faultinject.Config{
	GMPeriod:            5 * time.Minute,
	RedundantMinPerHour: 6,
	RedundantMaxPerHour: 12,
	Downtime:            30 * time.Second,
	Start:               2 * time.Minute,
}

func (sz simSize) config(seed int64) core.Config {
	if sz.sites > 0 {
		return core.ScaleConfig(seed, sz.sites, 4, 2, 2)
	}
	return core.NewConfig(seed)
}

// setupTimes are the wall times of the calls that set a system up.
type setupTimes struct {
	build, start, converge time.Duration
}

// converged builds and starts a system from cfg and runs it for d, timing
// each call in a span under parent. The caller owns the system and must
// Close it.
func converged(r *run, parent int, cfg core.Config, d time.Duration) (*core.System, setupTimes, error) {
	var t setupTimes
	var sys *core.System
	var err error
	t.build, err = r.spans.timed("core.NewSystem", parent, func() error {
		sys, err = core.NewSystem(cfg)
		return err
	})
	if err != nil {
		return nil, t, err
	}
	if t.start, err = r.spans.timed("core.Start", parent, sys.Start); err != nil {
		sys.Close()
		return nil, t, err
	}
	if t.converge, err = r.spans.timed("core.RunFor", parent, func() error { return sys.RunFor(d) }); err != nil {
		sys.Close()
		return nil, t, err
	}
	return sys, t, nil
}

// heapPerNode divides the live heap among the system's switches and VMs.
func heapPerNode(sys *core.System) float64 {
	cfg := sys.Config()
	return float64(liveHeap()) / float64(cfg.TotalNodes()*(1+cfg.VMsPerNode))
}

// repCounters are the obs counters whose growth over a repetition's timed
// chunks the per-layer metrics report.
var repCounters = []string{
	"sim_events_cancelled", "netsim_frames_sent", "netsim_frames_forwarded", "netsim_frames_lost",
	"ptp4l_fta_aggregations", "ptp4l_fta_discarded", "ptp4l_fta_starved", "ptp4l_servo_steps",
	"hypervisor_takeovers",
}

// simRep is what one repetition measured. It keeps numbers only, so that
// the heap measured in later repetitions does not grow with earlier ones.
type simRep struct {
	setupTimes
	setup                       time.Duration
	heapPerNode                 float64
	wall, cpu                   time.Duration
	chunkRates                  []float64 // sim-s per wall-s of each timed RunFor
	simSec                      float64
	events, mallocs, allocBytes uint64
	counts                      map[string]float64 // growth of repCounters
	poolHitRate                 float64
	fabric                      sim.FabricStats // growth over the timed chunks; zero unsharded
	imbalance                   float64         // max ÷ mean of per-shard events; 0 unsharded

	// Outputs the correctness checks compare.
	failures, violations int
}

// runSimRep builds, starts and converges one system (the set-up), attaches
// the fault injector on the mesh, then runs the timed chunks. With traced
// set, the timed chunks run under the CPU profiler.
func runSimRep(r *run, name string, sz simSize, traced bool) (*simRep, error) {
	// Free the previous rep's system and hand its memory back to the OS,
	// so that two systems are never alive at once and the peak RSS does not
	// grow with the number of reps the time budget allows.
	debug.FreeOSMemory()
	rep := &simRep{}
	root := r.spans.begin(name+".rep", 0, "")
	defer r.spans.end(root)

	setup := r.spans.begin("setup", root, "")
	sys, times, err := converged(r, setup, sz.config(r.seed), sz.converge)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	rep.setupTimes = times
	var inj *faultinject.Injector
	if sz.sites == 0 {
		if _, err = r.spans.timed("faultinject.Start", setup, func() error {
			controls := sys.NodeControls()
			nodes := make([]faultinject.NodeControl, len(controls))
			for i := range controls {
				nodes[i] = controls[i]
			}
			inj, err = faultinject.New(sys.Scheduler(), sys.Streams().Stream("inject"), nodes, meshFaults)
			if err != nil {
				return err
			}
			return inj.Start()
		}); err != nil {
			return nil, err
		}
	}
	rep.setup = r.spans.end(setup)

	rep.heapPerNode = heapPerNode(sys)

	before := sys.Metrics().Snapshot()
	var fabric0 sim.FabricStats
	if f := sys.Fabric(); f != nil {
		fabric0 = f.Stats()
	}
	events0, ms0, cpu0 := sys.ProcessedEvents(), memStats(), cpuTime()
	chunks := func() error {
		for i := 0; i < sz.chunks; i++ {
			d, err := r.spans.timed("core.RunFor", root, func() error { return sys.RunFor(sz.chunk) })
			if err := r.attempt(err); err != nil {
				return err
			}
			rep.wall += d
			rep.chunkRates = append(rep.chunkRates, sz.chunk.Seconds()/d.Seconds())
		}
		return nil
	}
	if traced {
		err = r.traced(chunks)
	} else {
		err = chunks()
	}
	if err != nil {
		return nil, err
	}
	ms1 := memStats()
	rep.cpu = cpuTime() - cpu0
	rep.events = sys.ProcessedEvents() - events0
	rep.mallocs, rep.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	rep.simSec = (time.Duration(sz.chunks) * sz.chunk).Seconds()
	after := sys.Metrics().Snapshot()
	rep.counts = map[string]float64{}
	for _, n := range repCounters {
		rep.counts[n] = total(after, n) - total(before, n)
	}
	rep.poolHitRate = total(after, "netsim_pool_hit_rate")
	if f := sys.Fabric(); f != nil {
		f1 := f.Stats()
		rep.fabric = sim.FabricStats{
			Windows:          f1.Windows - fabric0.Windows,
			SerialWindows:    f1.SerialWindows - fabric0.SerialWindows,
			FlushesSkipped:   f1.FlushesSkipped - fabric0.FlushesSkipped,
			Committed:        f1.Committed - fabric0.Committed,
			BarrierWaitNS:    f1.BarrierWaitNS - fabric0.BarrierWaitNS,
			LookaheadRescans: f1.LookaheadRescans - fabric0.LookaheadRescans,
		}
		rep.imbalance = imbalance(series(before, "pdes_shard_events"), series(after, "pdes_shard_events"))
	}
	if inj != nil {
		inj.Stop()
		rep.failures = inj.Stats().TotalFailures
		rep.violations = violations(sys)
	}
	return rep, nil
}

// imbalance is the busiest shard's event count over the mean, counting the
// events between two snapshots of the per-shard counters.
func imbalance(before, after []float64) float64 {
	if len(after) == 0 || len(after) != len(before) {
		return 0
	}
	var hi, all float64
	for i := range after {
		d := after[i] - before[i]
		hi = max(hi, d)
		all += d
	}
	return ratio(hi, all/float64(len(after)))
}

// violations counts collector samples beyond Π+γ after the 30 s settle,
// the Fig. 4a criterion.
func violations(sys *core.System) int {
	bound, _ := sys.PrecisionBound()
	limit := float64(bound + sys.Collector().Gamma())
	var steady []measure.Sample
	for _, s := range sys.Collector().Samples() {
		if s.AtSec >= 30 {
			steady = append(steady, s)
		}
	}
	return measure.ViolationCount(steady, limit)
}

// runSim is the mesh and fabric workload: repetitions until the time
// budget is spent, then, when traced, one more under the profiler.
func runSim(r *run, name string, sz simSize, want *golden) error {
	var reps []*simRep
	for len(reps) == 0 || r.timeLeft() {
		rep, err := runSimRep(r, name, sz, false)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	checkSim(r, name, reps, want)
	putSim(r, reps)

	if r.profile == nil {
		return nil
	}
	traced, err := runSimRep(r, name, sz, true)
	if err != nil {
		return err
	}
	return r.putProfile(traced.events, traced.wall.Seconds()/traced.simSec, secPerSim(reps))
}

func secPerSim(reps []*simRep) float64 {
	var wall, simSec float64
	for _, rep := range reps {
		wall += rep.wall.Seconds()
		simSec += rep.simSec
	}
	return wall / simSec
}

// checkSim compares the simulated outputs of every repetition: they must
// agree with each other and, for the golden seed, with the pinned values.
func checkSim(r *run, name string, reps []*simRep, want *golden) {
	first := reps[0]
	same := true
	for _, rep := range reps[1:] {
		same = same && rep.events == first.events && rep.failures == first.failures && rep.violations == first.violations
	}
	r.check(name+".repeatable", same, "%d reps: events %d, failures %d, violations %d",
		len(reps), first.events, first.failures, first.violations)
	if want == nil {
		return
	}
	switch name {
	case "mesh":
		w := want.Mesh
		r.check("mesh.golden", first.events == w.EventsPerRep && first.failures == w.Failures && first.violations == w.Violations,
			"events %d (want %d), failures %d (want %d), samples beyond Π+γ %d (want %d)",
			first.events, w.EventsPerRep, first.failures, w.Failures, first.violations, w.Violations)
	case "fabric":
		r.check("fabric.golden", first.events == want.Fabric.EventsPerRep,
			"events %d (want %d)", first.events, want.Fabric.EventsPerRep)
	}
}

// putSim reports the end-to-end and per-layer metrics of the untraced reps.
func putSim(r *run, reps []*simRep) {
	var setup, build, start, converge, heap, walls, rates []float64
	var wall, cpu time.Duration
	var simSec float64
	var events, mallocs, allocBytes uint64
	var perRep = map[string][]float64{}
	var fab sim.FabricStats
	var imbalances []float64
	for _, rep := range reps {
		setup = append(setup, rep.setup.Seconds())
		build = append(build, rep.build.Seconds())
		start = append(start, rep.start.Seconds())
		converge = append(converge, rep.converge.Seconds())
		heap = append(heap, rep.heapPerNode)
		walls = append(walls, rep.wall.Seconds())
		rates = append(rates, rep.chunkRates...)
		wall += rep.wall
		cpu += rep.cpu
		simSec += rep.simSec
		events += rep.events
		mallocs += rep.mallocs
		allocBytes += rep.allocBytes
		for n, v := range rep.counts {
			perRep[n] = append(perRep[n], v)
		}
		perRep["failures"] = append(perRep["failures"], float64(rep.failures))
		perRep["pool"] = append(perRep["pool"], rep.poolHitRate)
		fab.Windows += rep.fabric.Windows
		fab.SerialWindows += rep.fabric.SerialWindows
		fab.FlushesSkipped += rep.fabric.FlushesSkipped
		fab.Committed += rep.fabric.Committed
		fab.BarrierWaitNS += rep.fabric.BarrierWaitNS
		fab.LookaheadRescans += rep.fabric.LookaheadRescans
		imbalances = append(imbalances, rep.imbalance)
	}
	n := float64(len(reps))
	sum := func(name string) float64 { return sumOf(perRep[name]) }

	// The median over every timed RunFor of the run, not the total ratio, so
	// that a few chunks slowed by the host do not move it.
	r.putMedian("sim_rate", rates)
	r.putMedian("op_p50_s", walls)
	r.putMedian("setup_s", setup)

	r.putMedian("core.build_s", build)
	r.putMedian("core.start_s", start)
	r.putMedian("core.converge_s", converge)
	r.putMedian("core.heap_bytes_per_node", heap)
	r.put("core.allocs_per_event", float64(mallocs)/float64(events), nil)
	r.put("core.alloc_bytes_per_event", float64(allocBytes)/float64(events), nil)
	r.put("core.cpu_util", cpu.Seconds()/wall.Seconds(), nil)
	r.put("sim.events_per_sim_s", float64(events)/simSec, nil)
	r.put("sim.ns_per_event", float64(wall.Nanoseconds())/float64(events), nil)
	r.put("sim.cancel_ratio", ratio(sum("sim_events_cancelled"), sum("sim_events_cancelled")+float64(events)), nil)
	r.put("netsim.frames_sent_per_sim_s", sum("netsim_frames_sent")/simSec, nil)
	r.put("netsim.frames_forwarded_per_sim_s", sum("netsim_frames_forwarded")/simSec, nil)
	r.put("netsim.loss_ratio", ratio(sum("netsim_frames_lost"), sum("netsim_frames_sent")), nil)
	r.putMedian("netsim.pool_hit_rate", perRep["pool"])
	r.put("ptp4l.fta_aggregations_per_sim_s", sum("ptp4l_fta_aggregations")/simSec, nil)
	r.put("ptp4l.fta_discarded_per_sim_s", sum("ptp4l_fta_discarded")/simSec, nil)
	r.put("ptp4l.fta_starved", sum("ptp4l_fta_starved")/n, nil)
	r.put("ptp4l.servo_steps", sum("ptp4l_servo_steps")/n, nil)
	r.put("hypervisor.takeovers", sum("hypervisor_takeovers")/n, nil)
	r.put("faultinject.failures", sum("failures")/n, nil)
	if fab.Windows > 0 {
		r.put("sim.fabric_windows_per_sim_s", float64(fab.Windows)/simSec, nil)
		r.put("sim.fabric_serial_window_ratio", float64(fab.SerialWindows)/float64(fab.Windows), nil)
		r.put("sim.fabric_barrier_wait_share", float64(fab.BarrierWaitNS)/float64(wall.Nanoseconds()), nil)
		r.put("sim.fabric_flush_skip_ratio", float64(fab.FlushesSkipped)/float64(fab.Windows), nil)
		r.put("sim.fabric_mailbox_frames_per_sim_s", float64(fab.Committed)/simSec, nil)
		r.put("sim.fabric_lookahead_rescans", float64(fab.LookaheadRescans)/n, nil)
		r.putMedian("sim.fabric_shard_imbalance", imbalances)
	}
}
