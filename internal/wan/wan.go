// Package wan implements the wide-area tier of the paper's architecture:
// a second, site-level fault-tolerant-average layer in the spirit of
// G-SINC (arXiv 2207.06116) joining N full LAN topologies over WAN links
// with asymmetric, slowly drifting delay.
//
// Each site exposes one aggregate clock (the site's FTA-disciplined sync
// time, read at its gateway node). A site-level coordinator ticks on the
// system's scheduler: every Interval each site takes pairwise offset
// readings against every reachable peer site — corrupted by the WAN path's
// two-way-exchange asymmetry error and measurement noise — and runs the
// same trimmed FTA over them (fta.AggregateWithInfo) that the LAN tier
// runs over domain offsets. The result disciplines a per-site virtual
// correction through a PI servo (servo.PI), so all sites converge onto a
// common wide-area timescale without any site acting as a master.
//
// Graceful degradation ladder (holdover escalation):
//
//  1. A failed or partitioned peer's last reading stays usable for
//     StaleAfter, masking one-tick blips.
//  2. When fewer than NumSites − min(F, ⌊(N−1)/2⌋) readings remain fresh
//     (quorum loss: the surviving set can no longer both out-vote the
//     Byzantine budget and form a strict majority), the site stops feeding
//     its servo — coasting on the last good frequency.
//  3. Quorum loss persisting for HoldoverWindow freezes the servo
//     (servo.Freeze): explicit cross-site holdover, counted in obs.
//  4. After the fault heals, quorum returns; the servo stays frozen until
//     the aggregate offset has been below ReacquireThresholdNS for
//     ReacquireStableCount consecutive ticks (hysteresis), then thaws with
//     a MaxSlewPPB slew bound (servo.Thaw) — re-stabilization is a bounded
//     ramp, never a step storm.
//
// Determinism: the coordinator's noise draws come from dedicated per-site streams and are consumed every
// tick for every peer slot regardless of reachability, so fault injection
// never shifts the random sequence. Disabled (Config.Enabled == false) the
// tier consumes nothing and the committed golden digests are unaffected.
package wan

import (
	"fmt"
	"math"
	"time"

	"gptpfta/internal/fta"
	"gptpfta/internal/obs"
	"gptpfta/internal/servo"
	"gptpfta/internal/sim"
)

// Fabric is the coordinator's view of the multi-site system, implemented
// by internal/core over the gateway chain.
type Fabric interface {
	// NumSites reports the number of sites.
	NumSites() int
	// SiteTime reads site i's aggregate sync time in nanoseconds at the
	// current control instant; ok is false while the site is failed.
	SiteTime(site int) (ns float64, ok bool)
	// PathUp reports whether the WAN path between sites i and j is intact
	// (no severed chain link, no failed intermediate gateway).
	PathUp(i, j int) bool
	// PathAsymNS is the signed asymmetry error a two-way exchange from
	// observer site i to peer site j inherits, in nanoseconds: half the
	// difference of the directional path delays.
	PathAsymNS(i, j int) float64
}

// Config parameterises the site-level tier. All fields are value types so
// it can live inside core.Config without breaking prefix hashing.
type Config struct {
	// Enabled switches the tier on. Disabled, nothing is scheduled and no
	// randomness is consumed.
	Enabled bool
	// F is the site-level Byzantine fault budget (sites that may lie).
	F int
	// Interval is the site-level resynchronisation period.
	Interval time.Duration
	// ValidityThresholdNS is the site-level validity-flag threshold passed
	// to the FTA (readings further than this from the peer median are
	// flagged; FlagMonitor policy, as in the LAN tier).
	ValidityThresholdNS float64
	// NoiseNS is the 1-sigma measurement noise per pairwise reading.
	NoiseNS float64
	// StaleAfter keeps a peer's last reading usable after contact is lost.
	StaleAfter time.Duration
	// HoldoverWindow is how long quorum loss must persist before the servo
	// freezes.
	HoldoverWindow time.Duration
	// ReacquireThresholdNS and ReacquireStableCount are the thaw
	// hysteresis: the aggregate must stay below the threshold for that
	// many consecutive ticks before holdover ends.
	ReacquireThresholdNS float64
	ReacquireStableCount int
	// MaxSlewPPB bounds the post-thaw frequency slew.
	MaxSlewPPB float64
	// Drift parameterises the WAN delay drift process (see DriftConfig).
	Drift DriftConfig
}

// WithDefaults fills zero fields with the paper-scale defaults.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ValidityThresholdNS == 0 {
		c.ValidityThresholdNS = 50_000
	}
	if c.NoiseNS == 0 {
		c.NoiseNS = 2_000
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
	if c.HoldoverWindow <= 0 {
		c.HoldoverWindow = 3 * time.Second
	}
	if c.ReacquireThresholdNS == 0 {
		c.ReacquireThresholdNS = 10_000
	}
	if c.ReacquireStableCount == 0 {
		c.ReacquireStableCount = 4
	}
	if c.MaxSlewPPB == 0 {
		c.MaxSlewPPB = 2_000
	}
	c.Drift = c.Drift.withDefaults()
	return c
}

// SiteSample is one coordinator tick's observable state, recorded for the
// wansites experiment's verdict computation.
type SiteSample struct {
	// AtSec is the simulation instant in seconds.
	AtSec float64
	// AdjNS is each site's adjusted (raw + correction) time; NaN while the
	// site is failed.
	AdjNS []float64
	// Alive reports which sites answered SiteTime this tick.
	Alive []bool
	// Quorum reports which sites saw a full site-level quorum.
	Quorum []bool
	// Holdover reports which sites were in frozen holdover.
	Holdover []bool
}

// lastReading caches the most recent pairwise offset so short outages are
// bridged by the staleness window.
type lastReading struct {
	offsetNS float64
	atNS     float64
	valid    bool
}

// Coordinator runs the site-level FTA. It is armed on the control
// scheduler by Start and snapshot/restored for warm-start forks.
type Coordinator struct {
	cfg    Config
	fab    Fabric
	nSites int
	// tolerable is min(F, ⌊(N−1)/2⌋); quorum needs nSites−tolerable fresh.
	tolerable int

	rngs   []*sim.Stream
	servos []*servo.PI

	corrNS  []float64 // per-site virtual correction applied on top of SiteTime
	freqPPB []float64 // per-site applied frequency adjustment
	last    [][]lastReading
	// tickNoise is the current tick's pre-drawn noise matrix
	// [observer][peer]; drawing it up-front for every slot keeps the
	// streams position-stable under failures.
	tickNoise  [][]float64
	noQuorumAt []float64 // control instant quorum was lost, or NaN
	stable     []int     // consecutive in-threshold ticks while frozen
	lastTickNS float64
	samples    []SiteSample

	sched  *sim.Scheduler
	ticker *sim.Ticker

	obsTicks      *obs.Counter
	obsQuorumLost *obs.Counter
	obsHoldEnter  *obs.Counter
	obsHoldExit   *obs.Counter
	obsSteps      *obs.Counter
	obsSpread     *obs.Gauge
}

// NewCoordinator builds the site tier over fab. streams provides the
// per-site noise streams ("wansync/site<i>"); reg, when non-nil, receives
// the tier's counters.
func NewCoordinator(cfg Config, fab Fabric, streams *sim.Streams, reg *obs.Registry) *Coordinator {
	cfg = cfg.WithDefaults()
	n := fab.NumSites()
	c := &Coordinator{
		cfg:        cfg,
		fab:        fab,
		nSites:     n,
		tolerable:  fta.Tolerable(n, cfg.F),
		corrNS:     make([]float64, n),
		freqPPB:    make([]float64, n),
		last:       make([][]lastReading, n),
		noQuorumAt: make([]float64, n),
		stable:     make([]int, n),
	}
	for i := 0; i < n; i++ {
		c.rngs = append(c.rngs, streams.Stream(fmt.Sprintf("wansync/site%d", i)))
		c.servos = append(c.servos, servo.NewPI(servo.Config{SyncInterval: cfg.Interval}))
		c.last[i] = make([]lastReading, n)
		c.noQuorumAt[i] = math.NaN()
	}
	if reg != nil {
		c.obsTicks = reg.Counter("wan_ticks")
		c.obsQuorumLost = reg.Counter("wan_quorum_lost_ticks")
		c.obsHoldEnter = reg.Counter("wan_holdover_entered")
		c.obsHoldExit = reg.Counter("wan_holdover_exited")
		c.obsSteps = reg.Counter("wan_servo_steps")
		c.obsSpread = reg.Gauge("wan_site_spread_ns")
	}
	return c
}

// Tolerable reports the coordinator's site-failure budget
// fta.Tolerable(N, f) = min(f, ⌊(N−1)/2⌋): the largest number of
// simultaneously failed sites the tier rides through without quorum loss.
func (c *Coordinator) Tolerable() int { return c.tolerable }

// Samples returns the recorded per-tick site states (aliased, not copied).
func (c *Coordinator) Samples() []SiteSample { return c.samples }

// Start arms the coordinator's ticker on sched.
func (c *Coordinator) Start(sched *sim.Scheduler) error {
	c.sched = sched
	c.lastTickNS = float64(sched.Now())
	t, err := sched.Every(sched.Now().Add(c.cfg.Interval), c.cfg.Interval, c.tick)
	if err != nil {
		return err
	}
	c.ticker = t
	return nil
}

// Stop cancels the ticker.
func (c *Coordinator) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

func (c *Coordinator) tick() {
	now := float64(c.sched.Now())
	dtSec := (now - c.lastTickNS) / 1e9
	c.lastTickNS = now
	if c.obsTicks != nil {
		c.obsTicks.Inc()
	}

	// Integrate the applied frequency corrections (ppb ≙ ns/s).
	for i := range c.corrNS {
		c.corrNS[i] += c.freqPPB[i] * dtSec
	}

	adj := make([]float64, c.nSites)
	alive := make([]bool, c.nSites)
	for i := 0; i < c.nSites; i++ {
		raw, ok := c.fab.SiteTime(i)
		alive[i] = ok
		if ok {
			adj[i] = raw + c.corrNS[i]
		} else {
			adj[i] = math.NaN()
		}
	}

	// Noise draws are position-stable: one normal per observer per peer
	// slot every tick, used or not, so failures never shift the streams.
	noise := make([][]float64, c.nSites)
	for i := 0; i < c.nSites; i++ {
		noise[i] = make([]float64, c.nSites)
		for j := 0; j < c.nSites; j++ {
			if j == i {
				continue
			}
			noise[i][j] = c.rngs[i].NormFloat64() * c.cfg.NoiseNS
		}
	}
	c.tickNoise = noise

	sample := SiteSample{
		AtSec:    now / 1e9,
		AdjNS:    adj,
		Alive:    alive,
		Quorum:   make([]bool, c.nSites),
		Holdover: make([]bool, c.nSites),
	}

	for i := 0; i < c.nSites; i++ {
		if !alive[i] {
			// A failed site neither measures nor adjusts; its cached peer
			// readings age out naturally.
			sample.Holdover[i] = c.servos[i].Frozen()
			continue
		}
		readings := c.siteReadings(i, now, adj, alive)
		fresh := 0
		for _, r := range readings {
			if r.Fresh {
				fresh++
			}
		}
		quorum := fresh >= c.nSites-c.tolerable
		sample.Quorum[i] = quorum

		agg, _, _, err := fta.AggregateWithInfo(readings, c.cfg.F, c.cfg.ValidityThresholdNS, fta.FlagMonitor)
		c.step(i, now, agg, err == nil, quorum)
		sample.Holdover[i] = c.servos[i].Frozen()
	}

	c.samples = append(c.samples, sample)
	if c.obsSpread != nil {
		if lo, hi, ok := aliveSpread(adj, alive); ok {
			c.obsSpread.Set(hi - lo)
		}
	}
}

// siteReadings builds observer i's site-offset vector: its own clock as
// reference (offset 0) plus one reading per reachable peer, corrupted by
// the path asymmetry error and measurement noise; unreachable peers fall
// back to their cached reading inside the staleness window.
func (c *Coordinator) siteReadings(i int, now float64, adj []float64, alive []bool) []fta.Reading {
	readings := make([]fta.Reading, 0, c.nSites)
	readings = append(readings, fta.Reading{Domain: i, OffsetNS: 0, At: now, Fresh: true})
	for j := 0; j < c.nSites; j++ {
		if j == i {
			continue
		}
		if alive[j] && c.fab.PathUp(i, j) {
			off := adj[i] - adj[j] + c.fab.PathAsymNS(i, j) + c.noiseAt(i, j)
			c.last[i][j] = lastReading{offsetNS: off, atNS: now, valid: true}
			readings = append(readings, fta.Reading{Domain: j, OffsetNS: off, At: now, Fresh: true})
			continue
		}
		lr := c.last[i][j]
		fresh := lr.valid && now-lr.atNS <= float64(c.cfg.StaleAfter)
		readings = append(readings, fta.Reading{Domain: j, OffsetNS: lr.offsetNS, At: lr.atNS, Fresh: fresh})
	}
	return readings
}

// noiseAt replays the tick's pre-drawn noise value for (observer, peer).
func (c *Coordinator) noiseAt(i, j int) float64 {
	if c.tickNoise == nil {
		return 0
	}
	return c.tickNoise[i][j]
}

// step runs site i's servo ladder for one tick.
func (c *Coordinator) step(i int, now, agg float64, aggOK, quorum bool) {
	s := c.servos[i]
	switch {
	case quorum && aggOK:
		c.noQuorumAt[i] = math.NaN()
		if s.Frozen() {
			// Hysteresis: thaw only after the offset has settled.
			if math.Abs(agg) < c.cfg.ReacquireThresholdNS {
				c.stable[i]++
			} else {
				c.stable[i] = 0
			}
			if c.stable[i] >= c.cfg.ReacquireStableCount {
				s.Thaw(c.cfg.MaxSlewPPB)
				c.stable[i] = 0
				if c.obsHoldExit != nil {
					c.obsHoldExit.Inc()
				}
			} else {
				return // still frozen: coast
			}
		}
		adjPPB, state := s.Sample(agg, now)
		switch state {
		case servo.StateJump:
			// Step the virtual clock by −offset, then apply the frequency.
			c.corrNS[i] -= agg
			c.freqPPB[i] = adjPPB
			if c.obsSteps != nil {
				c.obsSteps.Inc()
			}
		case servo.StateLocked:
			c.freqPPB[i] = adjPPB
		case servo.StateHoldover:
			// Unreachable: thaw above precedes sampling.
		default: // StateUnlocked: keep free-running
		}
	default:
		// Quorum lost (or the FTA starved entirely): coast on the last
		// frequency; freeze explicitly once the loss outlives the window.
		if c.obsQuorumLost != nil {
			c.obsQuorumLost.Inc()
		}
		if math.IsNaN(c.noQuorumAt[i]) {
			c.noQuorumAt[i] = now
		}
		if !s.Frozen() && now-c.noQuorumAt[i] >= float64(c.cfg.HoldoverWindow) {
			s.Freeze()
			c.stable[i] = 0
			if c.obsHoldEnter != nil {
				c.obsHoldEnter.Inc()
			}
		}
	}
}

func aliveSpread(adj []float64, alive []bool) (lo, hi float64, ok bool) {
	for i, a := range alive {
		if !a || math.IsNaN(adj[i]) {
			continue
		}
		if !ok {
			lo, hi, ok = adj[i], adj[i], true
			continue
		}
		if adj[i] < lo {
			lo = adj[i]
		}
		if adj[i] > hi {
			hi = adj[i]
		}
	}
	return lo, hi, ok
}
