package netsim

import (
	"errors"
	"time"

	"gptpfta/internal/sim"
)

// TrafficConfig describes a synthetic best-effort load: bursts of frames
// injected periodically toward a destination, crossing the switch fabric
// and competing with protocol traffic for egress capacity.
type TrafficConfig struct {
	Dst      Address
	Priority int
	Bytes    int
	// Interval between bursts; jittered uniformly by ±50%.
	Interval time.Duration
	// Burst is the number of frames per burst. Default 1.
	Burst int
}

func (c TrafficConfig) withDefaults() TrafficConfig {
	if c.Bytes <= 0 {
		c.Bytes = 1500
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// TrafficSource injects background traffic from a NIC.
type TrafficSource struct {
	cfg   TrafficConfig
	nic   *NIC
	sched *sim.Scheduler
	rng   *sim.Stream

	running bool
	sent    uint64
}

// NewTrafficSource creates a generator on nic.
func NewTrafficSource(nic *NIC, sched *sim.Scheduler, rng *sim.Stream, cfg TrafficConfig) (*TrafficSource, error) {
	if nic == nil {
		return nil, errors.New("netsim: nil NIC")
	}
	return &TrafficSource{cfg: cfg.withDefaults(), nic: nic, sched: sched, rng: rng}, nil
}

// Sent reports frames injected so far.
func (t *TrafficSource) Sent() uint64 { return t.sent }

// Start begins injection.
func (t *TrafficSource) Start() error {
	if t.running {
		return errors.New("netsim: traffic source already running")
	}
	t.running = true
	t.next()
	return nil
}

// Stop halts injection.
func (t *TrafficSource) Stop() { t.running = false }

func (t *TrafficSource) next() {
	if !t.running {
		return
	}
	for i := 0; i < t.cfg.Burst; i++ {
		f := &Frame{
			Src:      Address("nic/" + t.nic.DeviceName()),
			Dst:      t.cfg.Dst,
			Priority: t.cfg.Priority,
			Bytes:    t.cfg.Bytes,
			Payload:  "background",
		}
		if _, err := t.nic.Send(f); err == nil {
			t.sent++
		}
	}
	d := t.cfg.Interval
	if t.rng != nil {
		half := int64(d) / 2
		d = time.Duration(half + t.rng.Int63n(int64(d)))
	}
	t.sched.After(d, t.next)
}
