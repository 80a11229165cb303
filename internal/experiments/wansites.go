package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
	"gptpfta/internal/wan"
)

// Wide-area campaign verdicts. Unlike the LAN-tier attack verdicts, the
// degraded outcome is a success class: a point that loses its site-level
// quorum is SUPPOSED to enter cross-site holdover, provided it re-stabilizes
// within the configured window after the fault heals.
const (
	WanVerdictSurvived = "survived"
	WanVerdictDegraded = "degraded-within-bound"
	WanVerdictAnomaly  = "anomaly"
)

// wanAsymRamp is the wan-asym-drift ramp time: the WAN path migrates to its
// asymmetric configuration over this window (a routing change, not a step).
const wanAsymRamp = 5 * time.Second

// wanSitesEnvelopeNS is the base steady-state site-spread envelope: WAN
// measurement noise (2 µs 1-sigma per reading) plus servo ripple, with
// headroom. A point's full envelope adds the asymmetry bias A/2 the
// equilibrium provably carries (the biased site settles half the injected
// asymmetry away from the pack).
const wanSitesEnvelopeNS = 50_000

// WanSitesConfig parameterises the wide-area campaign: a sweep over
// (site count, simultaneously failed sites, injected WAN asymmetry)
// measuring the graceful-degradation guarantees of the site-level FTA tier
// against its analytic quorum bound min(f, ⌊(N−1)/2⌋).
type WanSitesConfig struct {
	Seed int64 `json:"seed"`
	// Duration of each sweep point's run.
	Duration time.Duration `json:"duration,omitempty"`
	// FaultStart delays the fault, letting both tiers converge first.
	FaultStart time.Duration `json:"fault_start,omitempty"`
	// FaultDuration is how long the failed sites stay dark before the
	// auto-revert restores them. It must outlive the WAN tier's staleness
	// window plus its holdover window, or an over-budget failure never
	// reaches frozen holdover.
	FaultDuration time.Duration `json:"fault_duration,omitempty"`
	// SiteCounts sweeps the fabric size N (each site one full paper mesh).
	SiteCounts []int `json:"site_counts,omitempty"`
	// FailedSites sweeps how many sites fail simultaneously (the
	// highest-indexed sites, keeping the surviving chain prefix intact;
	// counts beyond N−1 fail all but site 0).
	FailedSites []int `json:"failed_sites,omitempty"`
	// Asyms sweeps the WAN delay asymmetry ramped onto the first chain link
	// at FaultStart; zero leaves the path symmetric. The induced reading
	// bias is half the asymmetry.
	Asyms []time.Duration `json:"asyms,omitempty"`
	// F is the site-level Byzantine budget handed to the WAN tier. The
	// default 2 exercises both arms of min(f, ⌊(N−1)/2⌋): the floor binds
	// at N = 4, f itself at N = 5.
	F int `json:"f,omitempty"`
	// HoldoverWindow is the WAN tier's quorum-loss grace before the site
	// servos freeze (wan.Config.HoldoverWindow).
	HoldoverWindow time.Duration `json:"holdover_window,omitempty"`
	// ResyncWindow bounds re-stabilization: a degraded point must return
	// every site to alive+quorum+thawed within this long after the heal.
	// This is the verdict window, distinct from HoldoverWindow (the
	// entry delay into holdover).
	ResyncWindow time.Duration `json:"resync_window,omitempty"`
	// Parallel is the runner's worker count (0 = GOMAXPROCS, 1 =
	// sequential); the table is identical for every value.
	Parallel int `json:"parallel,omitempty"`
	// Metrics optionally instruments the campaign's runner pool. The
	// registry must be campaign-level, never a simulation's.
	Metrics *obs.Registry `json:"-"`
	// Snapshots optionally shares prefix snapshots through a campaign cache
	// (the job server's LRU). Without one each site count still runs its
	// convergence prefix once and forks every point of that fabric size
	// from it; the table is bit-identical to the cold runs.
	Snapshots runner.SnapshotCache `json:"-"`
}

// Validate implements Validator.
func (c WanSitesConfig) Validate() error {
	for i, n := range c.SiteCounts {
		if n < 2 {
			return fmt.Errorf("site_counts[%d] must be at least 2 (got %d)", i, n)
		}
	}
	for i, n := range c.FailedSites {
		if n < 0 {
			return fmt.Errorf("failed_sites[%d] must not be negative (got %d)", i, n)
		}
	}
	for i, d := range c.Asyms {
		if d < 0 {
			return fmt.Errorf("asyms[%d] must not be negative (got %v)", i, d)
		}
	}
	if c.F < 0 {
		return fmt.Errorf("f must not be negative (got %d)", c.F)
	}
	return firstErr(
		checkDurations(
			field{"duration", c.Duration},
			field{"fault_start", c.FaultStart},
			field{"fault_duration", c.FaultDuration},
			field{"holdover_window", c.HoldoverWindow},
			field{"resync_window", c.ResyncWindow}),
	)
}

func (c WanSitesConfig) withDefaults() WanSitesConfig {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.FaultStart <= 0 {
		c.FaultStart = 20 * time.Second
	}
	if c.FaultDuration <= 0 {
		c.FaultDuration = 15 * time.Second
	}
	if len(c.SiteCounts) == 0 {
		c.SiteCounts = []int{4, 5}
	}
	if len(c.FailedSites) == 0 {
		c.FailedSites = []int{0, 1, 2, 3}
	}
	if len(c.Asyms) == 0 {
		c.Asyms = []time.Duration{0, 10 * time.Microsecond}
	}
	if c.F == 0 {
		c.F = 2
	}
	if c.HoldoverWindow <= 0 {
		c.HoldoverWindow = 2 * time.Second
	}
	if c.ResyncWindow <= 0 {
		c.ResyncWindow = 20 * time.Second
	}
	return c
}

// WanSitePoint is one sweep point's outcome: the site census, the analytic
// quorum prediction, the measured degradation ladder, and the verdict.
type WanSitePoint struct {
	Label  string
	Sites  int
	Failed int // effective failed-site count (requested, clamped to N−1)
	AsymNS int64
	// Tolerable is the site-failure budget min(f, ⌊(N−1)/2⌋).
	Tolerable int
	// PredictedSurvive: failures within the budget and no over-threshold
	// asymmetry adversary → no surviving site may enter holdover.
	PredictedSurvive bool
	// MeasuredSurvive: no surviving site's servo ever froze.
	MeasuredSurvive bool
	Verdict         string

	QuorumLostTicks int
	HoldoverEntered int
	HoldoverExited  int
	// ResyncSec is how long after the heal the whole fabric was back to
	// alive+quorum+thawed for good; +Inf when it never re-stabilized.
	ResyncSec float64
	// FinalSpreadNS is the adjusted-clock spread across alive sites at the
	// last coordinator tick; EnvelopeNS the allowance it is judged against.
	FinalSpreadNS float64
	EnvelopeNS    float64
	Samples       int
}

// WanSitesResult is the campaign table plus the last point's metrics
// snapshot.
type WanSitesResult struct {
	ObsSnapshot
	Config WanSitesConfig
	Points []WanSitePoint
}

// Anomalies counts points whose measured ladder contradicts the quorum
// bound or escaped the degradation envelope — the CI wan-smoke gate number.
func (r *WanSitesResult) Anomalies() int {
	n := 0
	for _, p := range r.Points {
		if p.Verdict == WanVerdictAnomaly {
			n++
		}
	}
	return n
}

// Summary renders the campaign's one-line verdict.
func (r *WanSitesResult) Summary() string {
	var survived, degraded, anomalies int
	for _, p := range r.Points {
		switch p.Verdict {
		case WanVerdictSurvived:
			survived++
		case WanVerdictDegraded:
			degraded++
		default:
			anomalies++
		}
	}
	return fmt.Sprintf(
		"wide-area campaign (%d points): %d survived, %d degraded-within-bound, %d anomalies",
		len(r.Points), survived, degraded, anomalies)
}

// Rows renders the sweep table.
func (r *WanSitesResult) Rows() [][]string {
	rows := [][]string{{
		"label", "sites", "failed", "asym_ns", "tolerable",
		"predicted", "measured", "verdict",
		"quorum_lost_ticks", "holdover_entered", "holdover_exited",
		"resync_s", "final_spread_ns", "envelope_ns", "samples",
	}}
	outcome := func(survive bool) string {
		if survive {
			return "survive"
		}
		return "degrade"
	}
	for _, p := range r.Points {
		resync := "never"
		if !math.IsInf(p.ResyncSec, 1) {
			resync = fmt.Sprintf("%.1f", p.ResyncSec)
		}
		rows = append(rows, []string{
			p.Label,
			strconv.Itoa(p.Sites),
			strconv.Itoa(p.Failed),
			strconv.FormatInt(p.AsymNS, 10),
			strconv.Itoa(p.Tolerable),
			outcome(p.PredictedSurvive),
			outcome(p.MeasuredSurvive),
			p.Verdict,
			strconv.Itoa(p.QuorumLostTicks),
			strconv.Itoa(p.HoldoverEntered),
			strconv.Itoa(p.HoldoverExited),
			resync,
			fmt.Sprintf("%.0f", p.FinalSpreadNS),
			fmt.Sprintf("%.0f", p.EnvelopeNS),
			strconv.Itoa(p.Samples),
		})
	}
	return rows
}

// wanScenario is one resolved sweep point.
type wanScenario struct {
	sites  int
	failed int
	asym   time.Duration
}

func (s wanScenario) label() string {
	return fmt.Sprintf("sites=%d failed=%d asym=%v", s.sites, s.failed, s.asym)
}

// failedCount clamps the requested failure count to N−1: site 0 (the
// measurement VLAN root and chain head) always survives.
func (s wanScenario) failedCount() int {
	if s.failed >= s.sites {
		return s.sites - 1
	}
	return s.failed
}

// wanSitesSystemConfig is a sweep point's system configuration: a
// sites-sized fabric of paper meshes with the WAN tier armed. The
// background drift process stays off — the chaos wan-asym-drift ramp is the
// campaign's single writer of the WAN delay axis (Link.SetWanDelay is
// last-writer-wins between the two).
func wanSitesSystemConfig(cfg WanSitesConfig, sites int) core.Config {
	sysCfg := core.ScaleConfig(cfg.Seed, sites, 4, 2, 1)
	sysCfg.WanSync.Enabled = true
	sysCfg.WanSync.F = cfg.F
	sysCfg.WanSync.HoldoverWindow = cfg.HoldoverWindow
	return sysCfg
}

// wanSitesPlan builds a point's chaos timeline: the highest-indexed sites
// fail at FaultStart and auto-revert after FaultDuration; the asymmetry
// ramps onto the first chain link over wanAsymRamp and then holds. A
// fault-free point (failed = 0, asym = 0) returns nil.
func wanSitesPlan(cfg WanSitesConfig, sc wanScenario, sys *core.System) *chaos.Plan {
	var actions []chaos.Action
	if k := sc.failedCount(); k > 0 {
		sites := make([]int, 0, k)
		for i := sc.sites - k; i < sc.sites; i++ {
			sites = append(sites, i)
		}
		actions = append(actions, chaos.Action{
			Op:       chaos.OpSiteFail,
			Sites:    sites,
			At:       chaos.Duration(cfg.FaultStart),
			Duration: chaos.Duration(cfg.FaultDuration),
		})
	}
	if sc.asym > 0 {
		actions = append(actions, chaos.Action{
			Op:       chaos.OpWanAsymDrift,
			Links:    []string{sys.WanLinkName(0)},
			At:       chaos.Duration(cfg.FaultStart),
			Duration: chaos.Duration(wanAsymRamp),
			Asym:     chaos.Duration(sc.asym),
		})
	}
	if len(actions) == 0 {
		return nil
	}
	return &chaos.Plan{Name: sc.label(), Actions: actions}
}

// WanSites runs the wide-area campaign: the cross product of SiteCounts ×
// FailedSites × Asyms, each point an independent same-seed run of a
// multi-site fabric with the site-level FTA tier armed. Each point's
// measured degradation ladder (quorum retention, holdover entry,
// re-stabilization after heal) is judged against the analytic site budget
// min(f, ⌊(N−1)/2⌋); two runs of the same config are byte-identical, at
// every worker count. The fabric size is the only axis that
// shapes the convergence prefix — failures and asymmetry start at
// FaultStart — so each site count runs as one campaign, forking all of its
// points from one prefix.
func WanSites(ctx context.Context, cfg WanSitesConfig) (*WanSitesResult, error) {
	cfg = cfg.withDefaults()
	res := &WanSitesResult{Config: cfg}
	for _, sites := range cfg.SiteCounts {
		sysCfg := wanSitesSystemConfig(cfg, sites)
		var points []point[WanSitePoint]
		for _, failed := range cfg.FailedSites {
			for _, asym := range cfg.Asyms {
				sc := wanScenario{sites: sites, failed: failed, asym: asym}
				points = append(points, point[WanSitePoint]{
					name: sc.label(),
					cfg:  sysCfg,
					run: func(sys *core.System, remaining time.Duration) (WanSitePoint, []obs.Metric, error) {
						stop, err := startChaos(sys, wanSitesPlan(cfg, sc, sys), nil)
						if err != nil {
							return WanSitePoint{}, nil, err
						}
						if err := sys.RunFor(remaining); err != nil {
							return WanSitePoint{}, nil, err
						}
						stop()
						return wanSitesCollect(cfg, sc, sys)
					},
				})
			}
		}
		group, ms, err := runPoints(ctx, campaign{
			duration:  cfg.Duration,
			diverge:   cfg.FaultStart,
			parallel:  cfg.Parallel,
			metrics:   cfg.Metrics,
			snapshots: cfg.Snapshots,
		}, points)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, group...)
		res.Obs = lastSnapshot(ms)
	}
	return res, nil
}

// wanSitesCollect classifies one finished run. The verdict is computed
// entirely from the coordinator's per-tick sample series and the wan_*
// counters.
func wanSitesCollect(cfg WanSitesConfig, sc wanScenario, sys *core.System) (WanSitePoint, []obs.Metric, error) {
	co := sys.Wan()
	if co == nil {
		return WanSitePoint{}, nil, fmt.Errorf("wansites: %s: WAN tier not armed", sc.label())
	}
	samples := co.Samples()
	if len(samples) == 0 {
		return WanSitePoint{}, nil, fmt.Errorf("wansites: %s: no coordinator ticks recorded", sc.label())
	}

	k := sc.failedCount()
	failed := make([]bool, sc.sites)
	for i := sc.sites - k; i < sc.sites; i++ {
		failed[i] = true
	}
	tolerable := co.Tolerable()

	// Analytic prediction. The failed sites are fail-silent and covered by
	// the quorum budget; an asymmetry whose bias A/2 exceeds the WAN
	// validity threshold makes the head site an adversarial (lying, not
	// silent) domain that the trimming must additionally mask.
	wanCfg := wanSitesSystemConfig(cfg, sc.sites).WanSync.WithDefaults()
	asymAdversaries := 0
	if float64(sc.asym.Nanoseconds())/2 > wanCfg.ValidityThresholdNS {
		asymAdversaries = 1
	}
	predicted := k <= tolerable && asymAdversaries <= tolerable

	// Measured ladder: did any surviving site's servo freeze?
	holdover := false
	for _, smp := range samples {
		for i := 0; i < sc.sites; i++ {
			if !failed[i] && smp.Holdover[i] {
				holdover = true
			}
		}
	}
	measured := !holdover

	// Re-stabilization: the earliest instant from which every site stays
	// alive, in quorum, and thawed through the end of the run.
	allGood := func(smp wan.SiteSample) bool {
		for i := 0; i < sc.sites; i++ {
			if !smp.Alive[i] || !smp.Quorum[i] || smp.Holdover[i] {
				return false
			}
		}
		return true
	}
	stableFrom := math.Inf(1)
	for i := len(samples) - 1; i >= 0; i-- {
		if !allGood(samples[i]) {
			break
		}
		stableFrom = samples[i].AtSec
	}
	healAt := (cfg.FaultStart + cfg.FaultDuration).Seconds()
	resync := 0.0
	switch {
	case math.IsInf(stableFrom, 1):
		resync = math.Inf(1)
	case stableFrom > healAt:
		resync = stableFrom - healAt
	}

	// Final agreement: adjusted-clock spread across alive sites at the last
	// tick, judged against the base envelope plus the asymmetry bias the
	// equilibrium carries.
	last := samples[len(samples)-1]
	spread := 0.0
	lo, hi, any := 0.0, 0.0, false
	for i := 0; i < sc.sites; i++ {
		if !last.Alive[i] || math.IsNaN(last.AdjNS[i]) {
			continue
		}
		if !any {
			lo, hi, any = last.AdjNS[i], last.AdjNS[i], true
			continue
		}
		lo = math.Min(lo, last.AdjNS[i])
		hi = math.Max(hi, last.AdjNS[i])
	}
	if any {
		spread = hi - lo
	}
	envelope := float64(wanSitesEnvelopeNS) + float64(sc.asym.Nanoseconds())/2
	finalOK := any && spread <= envelope
	resyncOK := !math.IsInf(resync, 1) && resync <= cfg.ResyncWindow.Seconds()

	verdict := WanVerdictAnomaly
	switch {
	case predicted && measured && resyncOK && finalOK:
		verdict = WanVerdictSurvived
	case !predicted && !measured && resyncOK && finalOK:
		verdict = WanVerdictDegraded
	}

	snap := sys.Metrics().Snapshot()
	return WanSitePoint{
		Label:            sc.label(),
		Sites:            sc.sites,
		Failed:           k,
		AsymNS:           sc.asym.Nanoseconds(),
		Tolerable:        tolerable,
		PredictedSurvive: predicted,
		MeasuredSurvive:  measured,
		Verdict:          verdict,
		QuorumLostTicks:  sumMetric(snap, "wan_quorum_lost_ticks"),
		HoldoverEntered:  sumMetric(snap, "wan_holdover_entered"),
		HoldoverExited:   sumMetric(snap, "wan_holdover_exited"),
		ResyncSec:        resync,
		FinalSpreadNS:    spread,
		EnvelopeNS:       envelope,
		Samples:          len(samples),
	}, snap, nil
}
