package experiments

import (
	"context"
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
)

// BMCAReconvergenceConfig parameterises the BMCA ablation: how long a
// BMCA-managed single-domain network is without an agreed grandmaster
// after the elected one fails silently. The paper's architecture avoids
// this gap entirely — static external port configuration plus the FTA mask
// a fail-silent grandmaster continuously.
type BMCAReconvergenceConfig struct {
	Seed             int64         `json:"seed"`
	Systems          int           `json:"systems,omitempty"`           // chain length; default 4
	AnnounceInterval time.Duration `json:"announce_interval,omitempty"` // default 1 s (802.1AS)
	TimeoutCount     int           `json:"timeout_count,omitempty"`     // announce receipt timeout; default 3
}

// Validate implements Validator.
func (c BMCAReconvergenceConfig) Validate() error {
	// An Announce that has crossed 255 systems is discarded (stepsRemoved
	// ≥ 255 in 802.1AS and 1588), and one system has no successor.
	if c.Systems < 0 || c.Systems == 1 || c.Systems > 255 {
		return fmt.Errorf("systems must be 2..255, or 0 for the default (got %d)", c.Systems)
	}
	if c.TimeoutCount < 0 {
		return fmt.Errorf("timeout_count must not be negative (got %d)", c.TimeoutCount)
	}
	return checkDurations(field{"announce_interval", c.AnnounceInterval})
}

func (c BMCAReconvergenceConfig) withDefaults() BMCAReconvergenceConfig {
	if c.Systems <= 0 {
		c.Systems = 4
	}
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = time.Second
	}
	if c.TimeoutCount <= 0 {
		c.TimeoutCount = 3
	}
	return c
}

// BMCAReconvergenceResult reports the election timings.
type BMCAReconvergenceResult struct {
	Config BMCAReconvergenceConfig
	// InitialElection is the time from cold start until every system
	// agrees on the grandmaster.
	InitialElection time.Duration
	// ReelectionGap is the time from the grandmaster's silent failure
	// until every surviving system agrees on the successor — the window
	// during which BMCA-based networks have no synchronized time source.
	ReelectionGap time.Duration
	Successor     string
}

// Summary renders the verdict.
func (r BMCAReconvergenceResult) Summary() string {
	return fmt.Sprintf(
		"BMCA (announce %v, timeout %d): initial election %v; re-election gap after GM failure %v (successor %s) — the paper's static configuration + FTA masks the same failure with zero gap",
		r.Config.AnnounceInterval, r.Config.TimeoutCount, r.InitialElection, r.ReelectionGap, r.Successor)
}

// Rows renders the election timings.
func (r BMCAReconvergenceResult) Rows() [][]string {
	return [][]string{
		{"announce_interval", "timeout_count", "initial_election_ms", "reelection_gap_ms", "successor"},
		{r.Config.AnnounceInterval.String(), fmt.Sprintf("%d", r.Config.TimeoutCount),
			fmt.Sprintf("%d", r.InitialElection.Milliseconds()),
			fmt.Sprintf("%d", r.ReelectionGap.Milliseconds()), r.Successor},
	}
}

type bmcaAblationHook struct{ engine *gptp.BMCA }

func (h *bmcaAblationHook) Handle(_ *netsim.Bridge, ingress int, f *netsim.Frame, _ float64) bool {
	if a, ok := f.Payload.(*gptp.Announce); ok {
		h.engine.HandleAnnounce(ingress, a)
	}
	return true
}

// BMCAReconvergence builds a single-domain chain of time-aware systems
// under BMCA control, measures the initial election, fails the elected
// grandmaster (the chain's best clock sits at one end so the survivors
// stay connected), and measures the re-election gap. ctx is checked
// while it waits for agreement.
func BMCAReconvergence(ctx context.Context, cfg BMCAReconvergenceConfig) (*BMCAReconvergenceResult, error) {
	cfg = cfg.withDefaults()
	m := newMicro(cfg.Seed)
	sched := m.sched

	n := cfg.Systems
	engines := make([]*gptp.BMCA, n)
	bridges := make([]*netsim.Bridge, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("sys%d", i)
		br := m.bridge(name, "br/"+name, m.phc(name, clock.OscillatorConfig{}, clock.PHCConfig{}), 2,
			map[int]netsim.ResidenceModel{netsim.PriorityBestEffort: {Base: time.Microsecond, JitterNS: 100}})
		bridges[i] = br

		tx := make([]gptp.TxFunc, 2)
		for p := 0; p < 2; p++ {
			tx[p] = func(f *netsim.Frame) (float64, bool) { return br.Transmit(p, f), true }
		}
		engine, err := gptp.NewBMCA(sched, tx, gptp.BMCAConfig{
			Domain: 0,
			Self: gptp.SystemIdentity{ // the grandmaster at the chain's end, the successor at its start
				Priority1: priority1(i, n-1, 0), ClockClass: 248, Priority2: 128, ClockID: name,
			},
			AnnounceInterval:    cfg.AnnounceInterval,
			ReceiptTimeoutCount: cfg.TimeoutCount,
		}, nil)
		if err != nil {
			return nil, err
		}
		br.SetHook(&bmcaAblationHook{engine: engine})
		engines[i] = engine
	}
	for i := 0; i+1 < n; i++ {
		if err := m.link(fmt.Sprintf("link/%d", i), bridges[i].Port(1), bridges[i+1].Port(0)); err != nil {
			return nil, err
		}
	}
	if err := startAll(engines...); err != nil {
		return nil, err
	}

	// waitAgreement runs until every engine but exclude follows name.
	waitAgreement := func(name string, exclude int, limit time.Duration) (time.Duration, error) {
		start := sched.Now()
		deadline := start.Add(limit)
		for sched.Now() < deadline {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			agreed := true
			for i, e := range engines {
				agreed = agreed && (i == exclude || e.GM().ClockID == name)
			}
			if agreed {
				return sched.Now().Sub(start), nil
			}
			if err := sched.RunFor(10 * time.Millisecond); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("experiments: no agreement on %s within %v", name, limit)
	}

	res := &BMCAReconvergenceResult{Config: cfg, Successor: "sys0"}
	var err error
	if res.InitialElection, err = waitAgreement(fmt.Sprintf("sys%d", n-1), -1,
		time.Duration(n)*10*cfg.AnnounceInterval); err != nil {
		return nil, err
	}
	engines[n-1].Stop() // fail-silent grandmaster
	if res.ReelectionGap, err = waitAgreement(res.Successor, n-1,
		time.Duration(cfg.TimeoutCount+n)*10*cfg.AnnounceInterval); err != nil {
		return nil, err
	}
	return res, nil
}
