// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) plus microbenchmarks of
// the core algorithms. The figure benchmarks run time-compressed instances
// of the full experiments and report the paper-relevant quantities as
// custom metrics (ns-of-precision, violation counts), so `go test -bench`
// regenerates every row/series shape the paper reports.
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
	"gptpfta/internal/measure"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/servo"
	"gptpfta/internal/sim"
)

// BenchmarkBoundsMethodology — E1: the §III-A3/§III-B numbers
// (d_min, d_max, E, Γ, Π, γ).
func BenchmarkBoundsMethodology(b *testing.B) {
	var last *experiments.BoundsResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Bounds(context.Background(), experiments.BoundsConfig{
			Seed:     int64(i + 1),
			Duration: 3 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.ReadingError.Nanoseconds()), "E-ns")
	b.ReportMetric(float64(last.Bound.Nanoseconds()), "Pi-ns")
	b.ReportMetric(float64(last.Gamma.Nanoseconds()), "gamma-ns")
}

// BenchmarkFig3aIdenticalKernels — E2: both exploits succeed; the bound is
// violated after the second compromise.
func BenchmarkFig3aIdenticalKernels(b *testing.B) {
	var last *experiments.CyberResilienceResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.CyberResilience(context.Background(), experiments.CyberResilienceConfig{
			Seed:     int64(i + 1),
			Duration: 10 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.BoundViolatedAfterSecondAttack() {
			b.Fatalf("Fig. 3a shape lost: %s", res.Summary())
		}
		last = res
	}
	b.ReportMetric(float64(last.ViolationsAfterSecond), "violations")
	b.ReportMetric(last.MaxAfterSecondNS, "max-after-ns")
	b.ReportMetric(float64(last.Bound.Nanoseconds()), "Pi-ns")
}

// BenchmarkFig3bDiverseKernels — E3: the second exploit fails; the bound
// holds throughout.
func BenchmarkFig3bDiverseKernels(b *testing.B) {
	var last *experiments.CyberResilienceResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.CyberResilience(context.Background(), experiments.CyberResilienceConfig{
			Seed:           int64(i + 1),
			Duration:       10 * time.Minute,
			DiverseKernels: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.BoundViolatedAfterSecondAttack() {
			b.Fatalf("Fig. 3b shape lost: %s", res.Summary())
		}
		last = res
	}
	b.ReportMetric(float64(last.ViolationsAfterSecond), "violations")
	b.ReportMetric(float64(last.Bound.Nanoseconds()), "Pi-ns")
}

// BenchmarkFig4aFaultInjection — E4: the precision series stays within
// Π+γ under grandmaster and redundant-VM fail-silent faults.
func BenchmarkFig4aFaultInjection(b *testing.B) {
	var last *experiments.FaultInjectionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultInjection(context.Background(), experiments.FaultInjectionConfig{
			Seed:                int64(i + 1),
			Duration:            20 * time.Minute,
			GMPeriod:            5 * time.Minute,
			RedundantMinPerHour: 6,
			RedundantMaxPerHour: 12,
			Downtime:            30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Stats.MeanNS, "avg-ns")
	b.ReportMetric(last.Stats.MaxNS, "max-ns")
	b.ReportMetric(float64(last.Violations), "violations")
	b.ReportMetric(float64(last.Injection.TotalFailures), "vm-failures")
}

// BenchmarkFig4bDistribution — E5: the right-skewed sub-µs distribution
// (the paper: avg 322 ns, std 421 ns, min 33 ns, max 10.08 µs).
func BenchmarkFig4bDistribution(b *testing.B) {
	var stats measure.Stats
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultInjection(context.Background(), experiments.FaultInjectionConfig{
			Seed:                int64(i + 1),
			Duration:            15 * time.Minute,
			GMPeriod:            5 * time.Minute,
			RedundantMinPerHour: 4,
			RedundantMaxPerHour: 8,
			Downtime:            30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.ReportMetric(stats.MeanNS, "avg-ns")
	b.ReportMetric(stats.StdNS, "std-ns")
	b.ReportMetric(stats.MinNS, "min-ns")
	b.ReportMetric(stats.MaxNS, "max-ns")
}

// BenchmarkFig5EventWindow — E6: event extraction around the maximum
// spike, correlating VM failures, takeovers and ptp4l transient faults.
func BenchmarkFig5EventWindow(b *testing.B) {
	res, err := experiments.FaultInjection(context.Background(), experiments.FaultInjectionConfig{
		Seed:                1,
		Duration:            20 * time.Minute,
		GMPeriod:            5 * time.Minute,
		RedundantMinPerHour: 6,
		RedundantMaxPerHour: 12,
		Downtime:            30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		w := res.Fig5Window(10 * time.Minute)
		events = len(w.Events)
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(res.TxTimestampTimeouts), "tx-timeouts")
	b.ReportMetric(float64(res.DeadlineMisses), "deadline-misses")
}

// BenchmarkBaselineNoStartupSync — A1: the Kyriakakis-style baseline
// (clients-only aggregation, no initial GM synchronization) versus ours.
func BenchmarkBaselineNoStartupSync(b *testing.B) {
	var last *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineNoStartupSync(context.Background(), experiments.BaselineConfig{
			Seed:     int64(i + 1),
			Duration: 8 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.OursStats.MeanNS, "ours-avg-ns")
	b.ReportMetric(last.VariantStats.MeanNS, "baseline-avg-ns")
}

// BenchmarkAblationSingleDomainVsFTA — A2: plain single-domain gPTP versus
// the multi-domain FTA under one Byzantine grandmaster.
func BenchmarkAblationSingleDomainVsFTA(b *testing.B) {
	var last *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSingleDomainVsFTA(context.Background(), experiments.BaselineConfig{
			Seed:     int64(i + 1),
			Duration: 8 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.OursStats.MeanNS, "fta-avg-ns")
	b.ReportMetric(last.VariantStats.MeanNS, "single-avg-ns")
	b.ReportMetric(float64(last.VariantViolations), "single-violations")
}

// BenchmarkAblationFlagPolicy — A3: FTSHMEM validity-flag policy sweep.
func BenchmarkAblationFlagPolicy(b *testing.B) {
	var last *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFlagPolicy(context.Background(), experiments.BaselineConfig{
			Seed:     int64(i + 1),
			Duration: 6 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.OursStats.MeanNS, "monitor-avg-ns")
	b.ReportMetric(last.VariantStats.MeanNS, "exclude-avg-ns")
}

// --- microbenchmarks of the hot algorithms ---

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

// BenchmarkAblationBMCAReelection — A4: the BMCA's grandmaster re-election
// gap, which the paper's static external port configuration + FTA design
// eliminates.
func BenchmarkAblationBMCAReelection(b *testing.B) {
	var last *experiments.BMCAReconvergenceResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.BMCAReconvergence(experiments.BMCAReconvergenceConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.ReelectionGap.Milliseconds()), "gap-ms")
	b.ReportMetric(float64(last.InitialElection.Milliseconds()), "election-ms")
}

// BenchmarkAblationVotingMonitor — A5: the 2f+1 fail-consistent variant of
// §II-A (monitor consistency voting vs freshness-only detection).
func BenchmarkAblationVotingMonitor(b *testing.B) {
	var last *experiments.VotingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.VotingFailover(context.Background(), experiments.VotingConfig{
			Seed:    int64(i + 1),
			Settle:  90 * time.Second,
			Observe: 45 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.VotingDetection.Milliseconds()), "detect-ms")
	b.ReportMetric(last.WithVotingErrIntegral, "voting-err-ns-s")
	b.ReportMetric(last.WithoutVotingErrIntegral, "freshness-err-ns-s")
}

// BenchmarkFutureWorkUnikernelRecovery — A6: the §IV future-work study
// (GNU/Linux vs unikernel reboot time → redundancy exposure).
func BenchmarkFutureWorkUnikernelRecovery(b *testing.B) {
	var last *experiments.RecoveryResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RecoveryComparison(context.Background(), experiments.RecoveryConfig{
			Seed:     int64(i + 1),
			Duration: 30 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Linux.DegradedSeconds, "linux-degraded-s")
	b.ReportMetric(last.Unikernel.DegradedSeconds, "unikernel-degraded-s")
}

// BenchmarkSweepSyncInterval — A7: the Γ = 2·r_max·S trade-off table.
func BenchmarkSweepSyncInterval(b *testing.B) {
	var points []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		res, err := experiments.IntervalSweep(context.Background(), experiments.IntervalSweepConfig{
			Seed:      int64(i + 1),
			Intervals: []time.Duration{62500 * time.Microsecond, 250 * time.Millisecond},
			Duration:  4 * time.Minute,
			Parallel:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		points = res.Points
	}
	b.ReportMetric(points[0].BoundNS, "bound-fast-ns")
	b.ReportMetric(points[len(points)-1].BoundNS, "bound-slow-ns")
}

// BenchmarkSweepDomainCount — A8: Byzantine masking vs the number of
// domains (N >= 2f+1 required).
func BenchmarkSweepDomainCount(b *testing.B) {
	var points []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		res, err := experiments.DomainSweep(context.Background(), experiments.DomainSweepConfig{
			Seed:     int64(i + 1),
			Counts:   []int{2, 4},
			Duration: 6 * time.Minute,
			Parallel: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		points = res.Points
	}
	b.ReportMetric(float64(points[0].Violations), "m2-violations")
	b.ReportMetric(float64(points[1].Violations), "m4-violations")
}

// BenchmarkAblationTASProtection — A9: commodity FIFO egress vs the
// integrated TSN switch's 802.1Qbv + preemption under best-effort bursts —
// where the reading error E comes from.
func BenchmarkAblationTASProtection(b *testing.B) {
	var last *experiments.TASStudyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.TASStudy(experiments.TASStudyConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.FIFO.Spread.Nanoseconds()), "fifo-spread-ns")
	b.ReportMetric(float64(last.Protected.Spread.Nanoseconds()), "tsn-spread-ns")
}

// BenchmarkMultiSeedRobustness — the headline result re-run across seeds:
// the reproduction must not be a single-seed accident.
func BenchmarkMultiSeedRobustness(b *testing.B) {
	var last *experiments.MultiSeedResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiSeedValidation(context.Background(), experiments.MultiSeedConfig{
			Seeds:    []int64{int64(3*i + 1), int64(3*i + 2), int64(3*i + 3)},
			Duration: 10 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanOfMeansNS, "mean-ns")
	b.ReportMetric(last.StdOfMeansNS, "std-across-seeds-ns")
	b.ReportMetric(float64(last.AnyViolations), "violations")
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

// BenchmarkAblationDynamicMesh — A10: fully dynamic 802.1AS (BMCA +
// path-trace + relay tree rebuild) over the redundant mesh: the measured
// synchronization outage after a grandmaster failure.
func BenchmarkAblationDynamicMesh(b *testing.B) {
	var last *experiments.DynamicMeshResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicMeshStudy(experiments.DynamicMeshConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SyncOutage.Milliseconds()), "outage-ms")
	b.ReportMetric(float64(last.PassivePorts), "passive-ports")
}

// BenchmarkOneStepVsTwoStep — protocol-mode parity: one-step operation
// (802.1AS-2020 option) matches two-step accuracy at half the event
// traffic.
func BenchmarkOneStepVsTwoStep(b *testing.B) {
	var last *experiments.OneStepStudyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.OneStepStudy(experiments.OneStepStudyConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TwoStep.OffsetErrRMS, "two-step-rms-ns")
	b.ReportMetric(last.OneStep.OffsetErrRMS, "one-step-rms-ns")
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
