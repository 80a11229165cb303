package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/attack/bounds"
	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// Diversity axis values for the adversarial campaign.
const (
	DiversityIdentical = "identical" // every grandmaster runs the vulnerable kernel
	DiversityDiverse   = "diverse"   // Fig. 3b assignment: only c41 stays vulnerable
)

// AttacksConfig parameterises the adversarial campaign: a sweep over
// (Byzantine grandmaster count, on-path Sync delay magnitude, OS-diversity
// assignment) measuring the empirical failure boundary of the FTA quorum
// and comparing every point against the analytic 2f+1 resilience bound
// (arXiv 2006.15832) computed by internal/attack/bounds.
type AttacksConfig struct {
	Seed int64 `json:"seed"`
	// Duration of each sweep point's run.
	Duration time.Duration `json:"duration,omitempty"`
	// AttackStart delays the campaign, letting the system converge first.
	AttackStart time.Duration `json:"attack_start,omitempty"`
	// ByzantineCounts sweeps how many grandmasters the attacker holds
	// credentials on (attacked in attack.DefaultTargetOrder; counts beyond
	// the grandmaster population attack every grandmaster).
	ByzantineCounts []int `json:"byzantine_counts,omitempty"`
	// Delays sweeps the on-path Sync delay-attack magnitude against the
	// DelayTarget grandmaster's uplink; zero means no delay attack.
	Delays []time.Duration `json:"delays,omitempty"`
	// Diversity sweeps the kernel assignment: "identical" and/or "diverse".
	Diversity []string `json:"diversity,omitempty"`
	// Behavior selects the compromised grandmasters' falsification over
	// time: "constant" (default, the paper's fixed shift), "ramp" or
	// "wander".
	Behavior string `json:"behavior,omitempty"`
	// OffsetNS is the base origin falsification (default the paper's
	// −24 µs).
	OffsetNS float64 `json:"offset_ns,omitempty"`
	// SlewNSPerSec is the ramp rate for the "ramp" behavior.
	SlewNSPerSec float64 `json:"slew_ns_per_sec,omitempty"`
	// WanderNSPerStep is the per-second 1-sigma random-walk increment for
	// the "wander" behavior.
	WanderNSPerStep float64 `json:"wander_ns_per_step,omitempty"`
	// DelayTarget names the grandmaster whose uplink the delay attacker
	// sits on (default c31, disjoint from the default Byzantine targets).
	DelayTarget string `json:"delay_target,omitempty"`
	// HoldoverWindow arms the ptp4l holdover watchdog so the campaign also
	// measures holdover escape under attack (0 < explicit off is not
	// representable; the default arms 2 s like the chaos campaign).
	HoldoverWindow time.Duration `json:"holdover_window,omitempty"`
	// Parallel is the runner's worker count (0 = GOMAXPROCS, 1 =
	// sequential); the table is identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Metrics optionally instruments the campaign's runner pool. The
	// registry must be campaign-level, never a simulation's.
	Metrics *obs.Registry `json:"-"`
}

// Validate implements Validator.
func (c AttacksConfig) Validate() error {
	for i, n := range c.ByzantineCounts {
		if n < 0 {
			return fmt.Errorf("byzantine_counts[%d] must not be negative (got %d)", i, n)
		}
	}
	for i, d := range c.Delays {
		if d < 0 {
			return fmt.Errorf("delays[%d] must not be negative (got %v)", i, d)
		}
	}
	for i, d := range c.Diversity {
		if d != DiversityIdentical && d != DiversityDiverse {
			return fmt.Errorf("diversity[%d] must be %q or %q (got %q)",
				i, DiversityIdentical, DiversityDiverse, d)
		}
	}
	if _, err := attack.ParseBehaviorKind(c.Behavior); err != nil {
		return err
	}
	return firstErr(
		checkFinite("offset_ns", c.OffsetNS),
		checkFinite("slew_ns_per_sec", c.SlewNSPerSec),
		checkNonNegative("wander_ns_per_step", c.WanderNSPerStep),
		checkDurations(
			field{"duration", c.Duration},
			field{"attack_start", c.AttackStart},
			field{"holdover_window", c.HoldoverWindow}),
	)
}

func (c AttacksConfig) withDefaults() AttacksConfig {
	if c.Duration <= 0 {
		c.Duration = 8 * time.Minute
	}
	if c.AttackStart <= 0 {
		c.AttackStart = 3 * time.Minute
	}
	if len(c.ByzantineCounts) == 0 {
		c.ByzantineCounts = []int{0, 1, 2}
	}
	if len(c.Delays) == 0 {
		c.Delays = []time.Duration{0, 24 * time.Microsecond}
	}
	if len(c.Diversity) == 0 {
		c.Diversity = []string{DiversityIdentical, DiversityDiverse}
	}
	if c.Behavior == "" {
		c.Behavior = string(attack.BehaviorConstant)
	}
	if c.OffsetNS == 0 {
		c.OffsetNS = attack.MaliciousOriginOffsetNS
	}
	if c.DelayTarget == "" {
		c.DelayTarget = "c31"
	}
	if c.HoldoverWindow <= 0 {
		c.HoldoverWindow = 2 * time.Second
	}
	return c
}

// AttackPoint is one sweep point's outcome: the adversary census, the
// analytic prediction, the measured survival, and the resulting verdict.
type AttackPoint struct {
	Label     string
	Diversity string
	// ByzAttempted is the campaign size; ByzCompromised counts the
	// exploits that actually succeeded (OS diversity blocks the rest).
	ByzAttempted   int
	ByzCompromised int
	DelayNS        int64
	// Adversaries is the effective adversarial domain count: compromised
	// grandmasters plus the delay-attacked domain when the delay exceeds
	// the validity threshold (deduplicated if the delay target is itself
	// compromised).
	Adversaries int
	// Tolerable is the analytic masking capacity min(f, ⌊(m−1)/2⌋).
	Tolerable        int
	PredictedSurvive bool
	MeasuredSurvive  bool
	Verdict          bounds.Verdict

	MeanPrecisionNS float64
	MaxPrecisionNS  float64
	BoundNS         float64
	Violations      int
	Samples         int

	MaliciousDiscarded int
	HoldoverEntered    int
	HoldoverExited     int
}

// AttacksResult is the campaign table plus the last point's metrics
// snapshot.
type AttacksResult struct {
	ObsSnapshot
	Config AttacksConfig
	Points []AttackPoint
}

// Anomalies counts points whose measured outcome contradicts the analytic
// bound — the number the CI attack-matrix gate fails on.
func (r *AttacksResult) Anomalies() int {
	n := 0
	for _, p := range r.Points {
		if p.Verdict == bounds.VerdictAnomaly {
			n++
		}
	}
	return n
}

// Summary renders the campaign's one-line verdict.
func (r *AttacksResult) Summary() string {
	var counts [4]int
	order := []bounds.Verdict{bounds.VerdictInsideSurvived, bounds.VerdictOutsideFailed,
		bounds.VerdictOutsideSurvived, bounds.VerdictAnomaly}
	for _, p := range r.Points {
		for i, v := range order {
			if p.Verdict == v {
				counts[i]++
			}
		}
	}
	return fmt.Sprintf(
		"adversarial campaign (%d points): %d inside-bound survived, %d outside-bound failed, %d outside-bound survived, %d anomalies",
		len(r.Points), counts[0], counts[1], counts[2], counts[3])
}

// Rows renders the sweep table.
func (r *AttacksResult) Rows() [][]string {
	rows := [][]string{{
		"label", "diversity", "byz_attempted", "byz_compromised", "delay_ns",
		"adversaries", "tolerable", "predicted", "measured", "verdict",
		"mean_ns", "max_ns", "bound_ns", "violations", "samples",
		"malicious_discarded", "holdover_entered", "holdover_exited",
	}}
	outcome := func(survive bool) string {
		if survive {
			return "survive"
		}
		return "fail"
	}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Label,
			p.Diversity,
			strconv.Itoa(p.ByzAttempted),
			strconv.Itoa(p.ByzCompromised),
			strconv.FormatInt(p.DelayNS, 10),
			strconv.Itoa(p.Adversaries),
			strconv.Itoa(p.Tolerable),
			outcome(p.PredictedSurvive),
			outcome(p.MeasuredSurvive),
			string(p.Verdict),
			fmt.Sprintf("%.0f", p.MeanPrecisionNS),
			fmt.Sprintf("%.0f", p.MaxPrecisionNS),
			fmt.Sprintf("%.0f", p.BoundNS),
			strconv.Itoa(p.Violations),
			strconv.Itoa(p.Samples),
			strconv.Itoa(p.MaliciousDiscarded),
			strconv.Itoa(p.HoldoverEntered),
			strconv.Itoa(p.HoldoverExited),
		})
	}
	return rows
}

// attackScenario is one resolved sweep point.
type attackScenario struct {
	byz       int
	delay     time.Duration
	diversity string
}

func (s attackScenario) label() string {
	return fmt.Sprintf("byz=%d delay=%v kernels=%s", s.byz, s.delay, s.diversity)
}

// Attacks runs the adversarial campaign: the cross product of
// ByzantineCounts × Delays × Diversity, each point an independent same-seed
// run. At AttackStart the attacker exploits the first-n grandmasters of the
// canonical target order (successes depend on the kernel assignment) and
// the on-path adversary starts holding the delay target's Sync frames.
// Each point's measured survival is compared against the analytic 2f+1
// bound; two runs of the same config are byte-identical, at every worker
// count.
func Attacks(ctx context.Context, cfg AttacksConfig) (*AttacksResult, error) {
	cfg = cfg.withDefaults()

	var scenarios []attackScenario
	for _, div := range cfg.Diversity {
		for _, byz := range cfg.ByzantineCounts {
			for _, d := range cfg.Delays {
				scenarios = append(scenarios, attackScenario{byz: byz, delay: d, diversity: div})
			}
		}
	}

	kind, err := attack.ParseBehaviorKind(cfg.Behavior)
	if err != nil {
		return nil, err
	}
	behavior := attack.Behavior{
		Kind:            kind,
		OffsetNS:        cfg.OffsetNS,
		SlewNSPerSec:    cfg.SlewNSPerSec,
		WanderNSPerStep: cfg.WanderNSPerStep,
	}
	points := make([]point[AttackPoint], len(scenarios))
	for i, sc := range scenarios {
		sysCfg := core.NewConfig(cfg.Seed)
		sysCfg.HoldoverWindow = cfg.HoldoverWindow
		if sc.diversity == DiversityDiverse {
			sysCfg.DiversifyKernels("c41")
		}
		points[i] = point[AttackPoint]{
			name: sc.label(),
			cfg:  sysCfg,
			run: func(sys *core.System, remaining time.Duration) (AttackPoint, []obs.Metric, error) {
				return attackRun(cfg, sc, behavior, sys, remaining)
			},
		}
	}
	// The attacks are scheduled at the boundary, for AttackStart: identical
	// kernels share one prefix, which diverse kernels change.
	res := &AttacksResult{Config: cfg}
	res.Points, res.Obs, err = runPoints(ctx, campaign{
		duration: cfg.Duration,
		diverge:  cfg.AttackStart,
		parallel: cfg.Parallel,
		metrics:  cfg.Metrics,
	}, points)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// attackRun schedules one scenario's attacks on a system standing at the
// campaign boundary, runs it and classifies the outcome against the
// analytic bound.
func attackRun(cfg AttacksConfig, sc attackScenario, behavior attack.Behavior,
	sys *core.System, remaining time.Duration) (AttackPoint, []obs.Metric, error) {
	sysCfg := sys.Config()
	targets := attack.CampaignTargets(attack.DefaultTargetOrder(), sc.byz)
	atk := attack.NewAttacker(attack.DefaultVulnDB(), attack.CVE201818955, targets...)

	// Schedule the coordinated campaign on the control scheduler: all
	// exploits fire at AttackStart. Evolving behaviors re-falsify once per
	// second from a per-adversary stream, so their draws do not depend on
	// what else the simulation draws.
	sys.Scheduler().At(sim.Time(cfg.AttackStart), func() {
		for _, target := range targets {
			vm, ok := sys.VM(target)
			if !ok {
				continue
			}
			adv := attack.NewAdversary(behavior, sys.Streams().Stream("attack/"+target))
			r := atk.Exploit(vm, adv.Offset(0))
			sys.EventLog().Append(core.Event{
				At: sys.Now(), VM: target, Kind: "exploit", Detail: r.String(),
			})
			if r.Success && !behavior.Static() {
				vm := vm
				start := sys.Now()
				_, terr := sys.Scheduler().Every(start.Add(time.Second), time.Second, func() {
					elapsed := time.Duration(sys.Now() - start).Seconds()
					vm.InstallMaliciousPTP4L(adv.Offset(elapsed))
				})
				if terr != nil {
					sys.EventLog().Append(core.Event{
						At: sys.Now(), VM: target, Kind: "exploit",
						Detail: "behavior ticker failed: " + terr.Error(),
					})
				}
			}
		}
	})

	delayInstalled := false
	if sc.delay > 0 {
		link := sys.Link(cfg.DelayTarget)
		if link == nil {
			return AttackPoint{}, nil, fmt.Errorf("attacks: unknown delay target %q", cfg.DelayTarget)
		}
		delayInstalled = true
		delayNS := float64(sc.delay.Nanoseconds())
		sys.Scheduler().At(sim.Time(cfg.AttackStart), func() {
			// Direction 0 of a VM uplink is VM→network: the attacker holds
			// the grandmaster's outbound Sync frames (all domains — the GM
			// only masters one).
			link.SetDelayAttack(attack.SyncDelayAttack{DelayNS: delayNS, Dir: 0, Domain: -1})
			sys.EventLog().Append(core.Event{
				At: sys.Now(), VM: cfg.DelayTarget, Kind: "delay_attack",
				Detail: fmt.Sprintf("on-path Sync delay %v installed on uplink", sc.delay),
			})
		})
	}

	if err := sys.RunFor(remaining); err != nil {
		return AttackPoint{}, nil, err
	}

	// Adversary census: successful compromises, plus the delay-attacked
	// domain when the induced reading error exceeds the validity threshold
	// (deduplicated if the delay target was itself compromised).
	compromised := atk.Compromised()
	adversaries := len(compromised)
	if delayInstalled && bounds.DelayFaulty(float64(sc.delay.Nanoseconds()), sysCfg.ValidityThresholdNS) {
		dup := false
		for _, name := range compromised {
			if name == cfg.DelayTarget {
				dup = true
			}
		}
		if !dup {
			adversaries++
		}
	}
	m := sysCfg.NumDomains()
	tolerable := bounds.Tolerable(m, sysCfg.F)
	predicted := bounds.Survives(m, sysCfg.F, adversaries)

	// Measured survival: the Fig. 3 criterion — at most a quarter of the
	// post-attack samples beyond Π+γ (the attack needs a settle margin
	// before the verdict window starts).
	bound, _ := sys.PrecisionBound()
	limit := float64(bound + sys.Collector().Gamma())
	verdictFrom := (cfg.AttackStart + 30*time.Second).Seconds()
	stats, violations, samples := steadyStats(sys.Collector().Samples(), verdictFrom, limit)
	measured := violations <= samples/4

	snap := sys.Metrics().Snapshot()
	return AttackPoint{
		Label:              sc.label(),
		Diversity:          sc.diversity,
		ByzAttempted:       sc.byz,
		ByzCompromised:     len(compromised),
		DelayNS:            sc.delay.Nanoseconds(),
		Adversaries:        adversaries,
		Tolerable:          tolerable,
		PredictedSurvive:   predicted,
		MeasuredSurvive:    measured,
		Verdict:            bounds.Classify(predicted, measured),
		MeanPrecisionNS:    stats.MeanNS,
		MaxPrecisionNS:     stats.MaxNS,
		BoundNS:            float64(bound),
		Violations:         violations,
		Samples:            samples,
		MaliciousDiscarded: sumMetric(snap, "ptp4l_fta_discarded_malicious"),
		HoldoverEntered:    sumMetric(snap, "ptp4l_holdover_entered"),
		HoldoverExited:     sumMetric(snap, "ptp4l_holdover_exited"),
	}, snap, nil
}
