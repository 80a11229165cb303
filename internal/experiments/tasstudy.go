package experiments

import (
	"context"
	"fmt"
	"time"

	"gptpfta/internal/gptp"
	"gptpfta/internal/measure"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
	"gptpfta/internal/tas"
)

// TASStudyConfig parameterises the time-aware-shaper ablation: how much of
// the reading error E (and with it the precision bound Π = u(N,f)(E+Γ))
// comes from best-effort interference that the integrated TSN switches'
// 802.1Qbv schedules remove.
type TASStudyConfig struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration,omitempty"`
	// BurstBytes / BurstFrames / BurstInterval describe the best-effort
	// load crossing the same egress port as the Sync path.
	BurstBytes    int           `json:"burst_bytes,omitempty"`
	BurstFrames   int           `json:"burst_frames,omitempty"`
	BurstInterval time.Duration `json:"burst_interval,omitempty"`
}

// Validate implements Validator.
func (c TASStudyConfig) Validate() error {
	if c.BurstBytes < 0 || c.BurstBytes > 1522 {
		return fmt.Errorf("burst_bytes must be 0..1522, the largest tagged Ethernet frame (got %d)", c.BurstBytes)
	}
	if c.BurstFrames < 0 {
		return fmt.Errorf("burst_frames must not be negative (got %d)", c.BurstFrames)
	}
	// Above the egress rate the contended queue grows for the whole run.
	d := c.withDefaults()
	if mbps := float64(d.BurstFrames) * float64(d.BurstBytes) * 8 / d.BurstInterval.Seconds() / 1e6; mbps > tasEgressMbps {
		return fmt.Errorf("burst_frames × burst_bytes × 8 / burst_interval is %.0f Mb/s, above the %d Mb/s egress",
			mbps, tasEgressMbps)
	}
	// One burst is sent inside one event, so it must also drain within one
	// Sync interval.
	if s := float64(d.BurstFrames) * float64(d.BurstBytes) * 8 / (tasEgressMbps * 1e6); s > tasSyncInterval.Seconds() {
		return fmt.Errorf("burst_frames × burst_bytes × 8 takes %g s at the %d Mb/s egress, above one %v Sync interval",
			s, tasEgressMbps, tasSyncInterval)
	}
	return checkDurations(
		field{"duration", c.Duration},
		field{"burst_interval", c.BurstInterval})
}

// tasEgressMbps is the rate of the study's contended egress port.
const tasEgressMbps = 1000

// tasSyncInterval is the study grandmaster's Sync interval, the
// gptp.MasterConfig default.
const tasSyncInterval = 125 * time.Millisecond

func (c TASStudyConfig) withDefaults() TASStudyConfig {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	if c.BurstBytes <= 0 {
		c.BurstBytes = 1500
	}
	if c.BurstFrames <= 0 {
		c.BurstFrames = 6
	}
	if c.BurstInterval <= 0 {
		c.BurstInterval = 500 * time.Microsecond
	}
	return c
}

// TASOutcome is one egress model's result.
type TASOutcome struct {
	Model string
	// SyncLatencyMin/Max/Spread summarise the observed Sync path
	// latencies through the contended port.
	SyncLatencyMin, SyncLatencyMax time.Duration
	Spread                         time.Duration // the E contribution
	SyncsObserved                  int
	BEFramesSent                   uint64
}

// TASStudyResult contrasts a FIFO (non-TSN) egress against a protected
// 802.1Qbv schedule under identical best-effort load.
type TASStudyResult struct {
	Config    TASStudyConfig
	FIFO      TASOutcome
	Protected TASOutcome
}

// Summary renders the verdict.
func (r TASStudyResult) Summary() string {
	return fmt.Sprintf(
		"TAS ablation: FIFO egress Sync-latency spread %v; protected 802.1Qbv window %v (%0.1fx tighter) under identical best-effort bursts",
		r.FIFO.Spread, r.Protected.Spread,
		safeRatio(float64(r.FIFO.Spread), float64(r.Protected.Spread)))
}

// Rows renders the per-egress-model table.
func (r *TASStudyResult) Rows() [][]string {
	rows := [][]string{{"egress", "sync_latency_min", "sync_latency_max", "spread_ns", "syncs", "be_frames"}}
	for _, o := range []TASOutcome{r.FIFO, r.Protected} {
		rows = append(rows, []string{o.Model, o.SyncLatencyMin.String(), o.SyncLatencyMax.String(),
			fmt.Sprintf("%d", o.Spread.Nanoseconds()),
			fmt.Sprintf("%d", o.SyncsObserved), fmt.Sprintf("%d", o.BEFramesSent)})
	}
	return rows
}

// TASStudy wires a grandmaster and a client through one switch whose
// client-facing egress port also carries heavy best-effort bursts, and
// measures the Sync path latency spread with (a) a single FIFO queue (a
// non-TSN switch) and (b) a protected-window gate schedule. ctx is
// checked before each egress model is built.
func TASStudy(ctx context.Context, cfg TASStudyConfig) (*TASStudyResult, error) {
	cfg = cfg.withDefaults()
	res := &TASStudyResult{Config: cfg}

	run := func(model string, mkShaper func() (*tas.Shaper, error)) (TASOutcome, error) {
		out := TASOutcome{Model: model}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		m := newMicro(cfg.Seed)
		br := m.bridge("sw", "br", m.drifting("sw", 2000, 0), 3,
			map[int]netsim.ResidenceModel{netsim.PriorityBestEffort: {Base: time.Microsecond}})
		shaper, err := mkShaper()
		if err != nil {
			return out, err
		}
		br.SetEgressScheduler(1, shaper) // the client-facing port

		gm, cl, be := m.nic("gm", 1500, 0), m.nic("cl", -1500, 0), m.nic("be", 0, 0)
		master, err := m.relayPath(br, gptp.MasterConfig{Domain: 0}, gm, cl, be)
		if err != nil {
			return out, err
		}

		// The client only tracks Sync path latencies.
		tracker := measure.NewLatencyTracker()
		var syncs int
		cl.SetHandler(func(f *netsim.Frame, _ float64) {
			if _, ok := f.Payload.(*gptp.Sync); ok {
				syncs++
				tracker.Observe("gm->cl", f.PathLatency(m.sched.Now()))
			}
		})
		if err := master.Start(); err != nil {
			return out, err
		}

		// Best-effort bursts toward the client: they contend on port 1.
		src, err := netsim.NewTrafficSource(be, m.sched, m.streams.Stream("traffic"), netsim.TrafficConfig{
			Dst:      "nic/cl",
			Priority: netsim.PriorityBestEffort,
			Bytes:    cfg.BurstBytes,
			Burst:    cfg.BurstFrames,
			Interval: cfg.BurstInterval,
		})
		if err != nil {
			return out, err
		}
		br.AddRoute("nic/cl", 1)
		if err := src.Start(); err != nil {
			return out, err
		}

		if err := m.sched.RunUntil(sim.Time(cfg.Duration)); err != nil {
			return out, err
		}
		min, max, ok := tracker.Extrema()
		if !ok {
			return out, fmt.Errorf("experiments: no Sync observed under %s egress", model)
		}
		out.SyncLatencyMin, out.SyncLatencyMax = min, max
		out.Spread = max - min
		out.SyncsObserved = syncs
		out.BEFramesSent = src.Sent()
		return out, nil
	}

	var err error
	res.FIFO, err = run("fifo", func() (*tas.Shaper, error) {
		return tas.NewFIFOShaper(tasEgressMbps)
	})
	if err != nil {
		return nil, err
	}
	// The TSN egress keeps the PTP and measurement gates permanently open
	// (event traffic must not incur gate-phase delay relative to the
	// unaligned Sync schedule) and gates best-effort instead; strict
	// priority with preemption does the rest. This is how the testbed's
	// integrated switches are provisioned.
	res.Protected, err = run("802.1Qbv", func() (*tas.Shaper, error) {
		gcl, err := tas.NewGateControlList([]tas.GateEntry{
			{Gates: tas.AllOpen, Duration: 105 * time.Microsecond},
			{Gates: tas.MaskFor(netsim.PriorityPTP, netsim.PriorityMeasure), Duration: 20 * time.Microsecond},
		})
		if err != nil {
			return nil, err
		}
		return tas.NewShaper(gcl, tasEgressMbps)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
