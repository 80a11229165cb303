package wan

import (
	"time"

	"gptpfta/internal/sim"
)

// DriftConfig parameterises the WAN delay drift process: a slow,
// reflected random walk on each wide-area link's (extra, asym) delay pair,
// modelling path migrations and queueing-level changes on a metro link.
// All fields are value types (prefix-hash safe).
type DriftConfig struct {
	// Enabled switches the process on.
	Enabled bool
	// Interval is the walk's step period.
	Interval time.Duration
	// StepNS is the 1-sigma per-step increment for both axes.
	StepNS float64
	// MaxExtraNS bounds the symmetric extra delay in [0, MaxExtraNS] by
	// reflection; the lower bound matches SetWanDelay's non-negative
	// contract.
	MaxExtraNS float64
	// MaxAsymNS bounds the directional asymmetry in [−MaxAsymNS,
	// +MaxAsymNS] by reflection.
	MaxAsymNS float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.StepNS == 0 {
		c.StepNS = 200
	}
	if c.MaxExtraNS == 0 {
		c.MaxExtraNS = 20_000
	}
	if c.MaxAsymNS == 0 {
		c.MaxAsymNS = 10_000
	}
	return c
}

// DriftLink is the slice of netsim.Link the drift process drives.
type DriftLink interface {
	SetWanDelay(extra, asym time.Duration)
}

// NamedLink pairs a WAN link with its topology name (the stream label).
type NamedLink struct {
	Name string
	Link DriftLink
}

// Drift runs the reflected random walk over a set of WAN links, ticking on
// the system's scheduler like the coordinator.
type Drift struct {
	cfg   DriftConfig
	links []NamedLink
	rngs  []*sim.Stream

	extraNS []float64
	asymNS  []float64

	sched  *sim.Scheduler
	ticker *sim.Ticker
}

// NewDrift builds the process; streams provides one dedicated walk stream
// per link ("wandrift/<name>").
func NewDrift(cfg DriftConfig, links []NamedLink, streams *sim.Streams) *Drift {
	cfg = cfg.withDefaults()
	d := &Drift{
		cfg:     cfg,
		links:   links,
		extraNS: make([]float64, len(links)),
		asymNS:  make([]float64, len(links)),
	}
	for _, l := range links {
		d.rngs = append(d.rngs, streams.Stream("wandrift/"+l.Name))
	}
	return d
}

// Start arms the walk on sched.
func (d *Drift) Start(sched *sim.Scheduler) error {
	d.sched = sched
	t, err := sched.Every(sched.Now().Add(d.cfg.Interval), d.cfg.Interval, d.tick)
	if err != nil {
		return err
	}
	d.ticker = t
	return nil
}

// Stop cancels the ticker.
func (d *Drift) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *Drift) tick() {
	for i := range d.links {
		rng := d.rngs[i]
		d.extraNS[i] = reflect1(d.extraNS[i]+rng.NormFloat64()*d.cfg.StepNS, 0, d.cfg.MaxExtraNS)
		d.asymNS[i] = reflect1(d.asymNS[i]+rng.NormFloat64()*d.cfg.StepNS, -d.cfg.MaxAsymNS, d.cfg.MaxAsymNS)
		d.links[i].Link.SetWanDelay(time.Duration(d.extraNS[i]), time.Duration(d.asymNS[i]))
	}
}

// reflect1 folds v back into [lo, hi] by reflection at the bounds.
func reflect1(v, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	for v < lo || v > hi {
		if v < lo {
			v = 2*lo - v
		}
		if v > hi {
			v = 2*hi - v
		}
	}
	return v
}

// driftSnapshot captures the walk state for warm-start forks; the RNG
// stream positions and the links' own wan fields are restored separately.
type driftSnapshot struct {
	extraNS []float64
	asymNS  []float64
}

// Snapshot implements sim.Snapshotter.
func (d *Drift) Snapshot() any {
	sn := &driftSnapshot{
		extraNS: append([]float64(nil), d.extraNS...),
		asymNS:  append([]float64(nil), d.asymNS...),
	}
	return sn
}

// Restore implements sim.Snapshotter.
func (d *Drift) Restore(snap any) {
	sn := snap.(*driftSnapshot)
	copy(d.extraNS, sn.extraNS)
	copy(d.asymNS, sn.asymNS)
}
