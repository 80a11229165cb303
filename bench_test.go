// Performance benchmarks: microbenchmarks of the hot algorithms (FTA
// aggregation, the PI servo, the event kernel, the netsim frame path) and
// end-to-end rates (the paper testbed's simulation rate and start-up, the
// runner's multi-seed campaign, warm and cold sweeps, forks, and the
// generated multi-site and WAN fabrics). `make bench-smoke` runs each once;
// `make bench` commits the kernel, system, sweep and fabric figures as
// BENCH_*.json. The paper's studies are not benchmarked here: each has one
// runnable form, `sweep -which <name>`, pinned by its TestGoldenDigest*.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/core"
	"gptpfta/internal/experiments"
	"gptpfta/internal/fta"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/servo"
	"gptpfta/internal/sim"
)

// BenchmarkFTAAggregate measures one FTSHMEM aggregation step (sort, drop,
// average, flags) at the paper's M = 4.
func BenchmarkFTAAggregate(b *testing.B) {
	readings := []fta.Reading{
		{Domain: 0, OffsetNS: 120, Fresh: true},
		{Domain: 1, OffsetNS: -80, Fresh: true},
		{Domain: 2, OffsetNS: 40, Fresh: true},
		{Domain: 3, OffsetNS: -24000, Fresh: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := fta.Aggregate(readings, 1, 10000, fta.FlagMonitor); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServoSample measures one PI controller update.
func BenchmarkServoSample(b *testing.B) {
	pi := servo.NewPI(servo.Config{SyncInterval: 125 * time.Millisecond})
	pi.Sample(100, 0)
	pi.Sample(90, 125e6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pi.Sample(float64(i%64), float64(i)*125e6)
	}
}

// BenchmarkSchedulerThroughput measures raw discrete-event throughput.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Nanosecond, func() {})
		if s.Pending() > 1024 {
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerCancelHeavy exercises the O(1) lazy-cancellation path:
// every iteration schedules a batch of timers and cancels most of them
// before draining, the dominant pattern of protocol timeout timers that are
// armed per message and almost always cancelled.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	s := sim.NewScheduler()
	var ids [64]sim.EventID
	fired := 0
	cb := func() { fired++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = s.After(time.Duration(j+1)*time.Microsecond, cb)
		}
		for j := range ids {
			if j%8 != 0 { // cancel 7 of every 8, as timeout timers are
				s.Cancel(ids[j])
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// BenchmarkNetsimFrameBurst measures the pooled frame path end to end:
// NIC → link → bridge (residence + static route) → link → NIC, one
// multicast fan-out per iteration. Steady-state allocations come only from
// the payload; frames and delivery events are recycled.
func BenchmarkNetsimFrameBurst(b *testing.B) {
	sched := sim.NewScheduler()
	streams := sim.NewStreams(7)
	osc := func(name string) *clock.PHC {
		o := clock.NewOscillator(clock.OscillatorConfig{}, nil, 0)
		return clock.NewPHC(sched, o, nil, clock.PHCConfig{})
	}
	br := netsim.NewBridge("sw", sched, streams.Stream("br"), osc("sw"),
		netsim.BridgeConfig{Ports: 3, Residence: map[int]netsim.ResidenceModel{
			netsim.PriorityBestEffort: {Base: 2 * time.Microsecond},
		}})
	nics := make([]*netsim.NIC, 3)
	lc := netsim.LinkConfig{Propagation: 500 * time.Nanosecond}
	for i := range nics {
		nics[i] = netsim.NewNIC(fmt.Sprintf("dev%d", i), sched, osc(fmt.Sprintf("dev%d", i)))
		if _, err := netsim.Connect(sched, nil, lc, nics[i].Port(), br.Port(i)); err != nil {
			b.Fatal(err)
		}
		br.AddGroupMember("mc/burst", i)
		nics[i].SetHandler(func(*netsim.Frame, float64) {})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := netsim.PoolOf(sched).Get()
		f.Src = "nic/dev0"
		f.Dst = "mc/burst"
		if _, err := nics[0].Send(f); err != nil {
			b.Fatal(err)
		}
		if err := sched.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if _, rx := nics[1].Counters(); rx == 0 {
		b.Fatal("no frames delivered")
	}
}

// BenchmarkSystemSimulationRate measures full-testbed simulation speed in
// simulated-seconds per wall-second (reported as ns/op per simulated
// minute). events/op counts only the timed minutes, not the convergence
// minute before the timer starts.
func BenchmarkSystemSimulationRate(b *testing.B) {
	sys, err := core.NewSystem(core.NewConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	if err := sys.RunFor(time.Minute); err != nil { // converge first
		b.Fatal(err)
	}
	converged := sys.Scheduler().Processed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.RunFor(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.Scheduler().Processed()-converged)/float64(b.N), "events/op")
}

// BenchmarkSystemStartup measures what BenchmarkSystemSimulationRate leaves
// out before its timer starts: building the paper testbed, starting it and
// its first simulated minute, where every stack is still in start-up mode.
// allocs/op is the whole start-up allocation count of one testbed.
func BenchmarkSystemStartup(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.NewConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Start(); err != nil {
			b.Fatal(err)
		}
		if err := sys.RunFor(time.Minute); err != nil {
			b.Fatal(err)
		}
		events = sys.Scheduler().Processed()
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkSystemBuild times core.NewSystem alone, on the paper testbed
// (mesh, 108 random streams) and on the bench's 8-site fabric (fabric-8,
// 878 streams): wiring every component and seeding its random stream.
func BenchmarkSystemBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"mesh", core.NewConfig(1)},
		{"fabric-8", core.ScaleConfig(1, 8, 4, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewSystem(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCampaign runs the 4-seed fault-injection campaign through the
// runner at the given worker count. On a multi-core host the parallel
// variant finishes in roughly 1/min(4, cores) of the sequential
// wall-clock; on a single-core host the two coincide.
func benchCampaign(b *testing.B, parallel int) {
	var last *experiments.MultiSeedResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiSeedValidation(context.Background(), experiments.MultiSeedConfig{
			Seeds:    []int64{1, 2, 3, 4},
			Duration: 8 * time.Minute,
			Parallel: parallel,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanOfMeansNS, "mean-ns")
	b.ReportMetric(float64(last.AnyViolations), "violations")
}

// BenchmarkCampaign4SeedsSequential — the 4-seed campaign on one worker:
// the wall-clock baseline for the runner's speedup claim.
func BenchmarkCampaign4SeedsSequential(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaign4SeedsParallel4 — the same campaign fanned across four
// workers. Compare ns/op against the sequential variant; results are
// bit-identical (the runner derives each run's streams from its seed and
// orders outcomes by submission index).
func BenchmarkCampaign4SeedsParallel4(b *testing.B) { benchCampaign(b, 4) }

// benchChaosSweep runs the network-chaos sweep that the warm-start
// benchmarks compare: six plans (three burst intensities, three partition
// durations) whose divergent tails (95 s each) are short against the shared
// 265 s convergence prefix — the regime the copy-on-fork snapshot engine is
// built for. The sweep pays the prefix once per fork lane and forks every
// point, on parallel runner workers. With cold set, each plan runs instead as
// its own one-point sweep, which runs cold and pays the prefix six times.
// The tables are bit-identical either way (see
// TestForkEquivalenceNetworkChaos and TestForkEquivalenceLanes), so ns/op is
// the only difference.
func benchChaosSweep(b *testing.B, cold bool, parallel int) {
	reg := obs.NewRegistry()
	sweeps := []experiments.NetworkChaosConfig{{
		Duration:           6 * time.Minute,
		ChaosStart:         4*time.Minute + 30*time.Second,
		BurstBadLoss:       []float64{0.25, 0.5, 0.9},
		PartitionDurations: []time.Duration{time.Second, 10 * time.Second, 30 * time.Second},
		Parallel:           parallel,
		Metrics:            reg,
	}}
	if cold {
		sweeps = onePointSweeps(b, sweeps[0])
	}
	var points []experiments.ChaosPoint
	for i := 0; i < b.N; i++ {
		points = points[:0]
		for _, cfg := range sweeps {
			cfg.Seed = int64(i + 1)
			res, err := experiments.NetworkChaos(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			points = append(points, res.Points...)
		}
	}
	var violations int
	for _, p := range points {
		violations += p.Violations
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(violations), "violations")
	if !cold {
		var forks float64
		for _, m := range reg.Snapshot() {
			if m.Name == "runner_forks_served" {
				forks += m.Value
			}
		}
		b.ReportMetric(forks/float64(b.N), "forks/op")
	}
}

// onePointSweeps splits a chaos sweep into one sweep per plan, each reading
// its plan from a file.
func onePointSweeps(b *testing.B, cfg experiments.NetworkChaosConfig) []experiments.NetworkChaosConfig {
	plans, err := cfg.Plans()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	sweeps := make([]experiments.NetworkChaosConfig, len(plans))
	for i, p := range plans {
		raw, err := json.Marshal(p)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("plan%d.json", i))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		sweeps[i] = cfg
		sweeps[i].BurstBadLoss, sweeps[i].PartitionDurations, sweeps[i].PlanPath = nil, nil, path
	}
	return sweeps
}

// BenchmarkSweepCold — the chaos sweep's six plans as six one-point sweeps,
// every point run cold from t=0: the wall-clock baseline the warm-start
// claim is measured against.
func BenchmarkSweepCold(b *testing.B) { benchChaosSweep(b, true, 1) }

// BenchmarkSweepWarmStart — the same sweep forked from one shared
// convergence-prefix snapshot, serially. Compare ns/op against
// BenchmarkSweepCold (both serial: prefix reuse, not worker count); the
// committed BENCH_sweep.json records the pair.
func BenchmarkSweepWarmStart(b *testing.B) { benchChaosSweep(b, false, 1) }

// BenchmarkSweepWarmLanes — the warm sweep on two runner workers: two fork
// lanes, each with its own replica of the prefix, draining the six forks
// together. Compare ns/op against BenchmarkSweepWarmStart at -cpu 2; at
// GOMAXPROCS 1 the lanes only interleave and pay the extra prefix.
func BenchmarkSweepWarmLanes(b *testing.B) { benchChaosSweep(b, false, 2) }

// BenchmarkForkSystem times core.ForkSystem on the paper mesh after a 1-min
// and a 60-min prefix. Each iteration first runs a tail past the snapshot
// with the timer stopped, then forks, so ns/op is the rewind alone: a 1-s
// tail, and a 95-s tail, the post-boundary run of the campaign sweep. A
// fork rewinds the RNG streams by the draws made in the tail, so its cost
// should not grow with the prefix.
func BenchmarkForkSystem(b *testing.B) {
	for _, prefix := range []struct {
		name string
		d    time.Duration
	}{{"1m", time.Minute}, {"60m", time.Hour}} {
		b.Run("prefix="+prefix.name, func(b *testing.B) {
			sys, err := core.NewSystem(core.NewConfig(1))
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Start(); err != nil {
				b.Fatal(err)
			}
			if err := sys.RunFor(prefix.d); err != nil {
				b.Fatal(err)
			}
			snap := sys.Snapshot()
			for _, tail := range []struct {
				name string
				d    time.Duration
			}{{"1s", time.Second}, {"95s", 95 * time.Second}} {
				b.Run("tail="+tail.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						if err := sys.RunFor(tail.d); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						if _, err := core.ForkSystem(snap); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkScaleFabric measures the kernel on a generated
// thousand-element TSN fabric (84 sites × 4 switches × 2 ECD VMs per switch
// = 336 switches + 672 VMs), the scale of a G-SINC-style multi-site
// hierarchy. Each op simulates one second of fabric time after
// convergence; sim_s_per_wall_s > 1 means the fabric simulates faster than
// real time.
func BenchmarkScaleFabric(b *testing.B) {
	cfg := core.ScaleConfig(1, 84, 4, 2)
	benchFabricRate(b, cfg)
	b.ReportMetric(float64(cfg.TotalNodes()+cfg.TotalNodes()*cfg.VMsPerNode), "nodes")
}

// BenchmarkWANFabric measures the wide-area tier's overhead on a multi-site
// fabric: the site-level FTA coordinator (pairwise offset exchanges over the
// gateway chain, trimmed-mean aggregation, per-site virtual-correction
// servos) and the WAN delay drift process. Each op simulates one second of
// fabric time after convergence; comparing against BenchmarkScaleFabric's
// per-site cost isolates what the WAN tier itself costs.
func BenchmarkWANFabric(b *testing.B) {
	for _, sites := range []int{4, 16} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			cfg := core.ScaleConfig(1, sites, 4, 2)
			cfg.WanSync.Enabled = true
			cfg.WanSync.F = 1
			cfg.WanSync.Drift.Enabled = true
			sys := benchFabricRate(b, cfg)
			co := sys.Wan()
			if co == nil {
				b.Fatal("WAN coordinator missing")
			}
			b.ReportMetric(float64(len(co.Samples()))/float64(b.N), "wan_samples/op")
		})
	}
}

// benchFabricRate builds and converges a system from cfg for 2 simulated
// seconds, then times b.N one-second RunFor calls and reports the
// simulation rate and the events per op.
func benchFabricRate(b *testing.B, cfg core.Config) *core.System {
	const simPerOp = time.Second
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	if err := sys.RunFor(2 * time.Second); err != nil { // converge first
		b.Fatal(err)
	}
	startEvents := sys.ProcessedEvents()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := sys.RunFor(simPerOp); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start)
	b.ReportMetric(float64(simPerOp)*float64(b.N)/float64(wall), "sim_s_per_wall_s")
	b.ReportMetric(float64(sys.ProcessedEvents()-startEvents)/float64(b.N), "events/op")
	return sys
}
