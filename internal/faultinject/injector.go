// Package faultinject reproduces the paper's 24 h fault-injection tool
// (§III-C): a per-node driver that (a) periodically shuts down the node's
// grandmaster VM in a fixed rotation across nodes and (b) randomly shuts
// down the redundant clock-synchronization VM with a bounded rate, while
// guaranteeing the fault hypothesis — never both clock-synchronization VMs
// of one node at the same time. Failed VMs reboot after a configurable
// downtime, restoring redundancy.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gptpfta/internal/sim"
)

// NodeControl is the injector's interface to one node: fail and reboot a
// clock-synchronization VM by index.
type NodeControl interface {
	ControlName() string
	NumVMs() int
	VMFailed(i int) bool
	InjectFail(i int) error
	InjectReboot(i int) error
}

// Config parameterises the injector.
type Config struct {
	// GMPeriod is the interval between consecutive grandmaster shutdowns;
	// the rotation walks the nodes sequentially (dev1, dev2, …), so each
	// node's grandmaster fails once per GMPeriod·len(nodes).
	GMPeriod time.Duration
	// GMIndex is the VM index acting as grandmaster on every node (VM 0).
	GMIndex int
	// RedundantMinPerHour / RedundantMaxPerHour bound the random failure
	// rate of the redundant (non-GM) VM, per node. The paper uses 1..12.
	RedundantMinPerHour float64
	RedundantMaxPerHour float64
	// Downtime is how long a failed VM stays down before rebooting.
	// Default 45 s (guest reboot on the Atom-class ECD).
	Downtime time.Duration
	// DowntimeJitter randomises the downtime by ±this amount.
	DowntimeJitter time.Duration
	// Start delays the first injection, letting the system synchronize.
	Start time.Duration
}

// validate rejects configurations that previously clamped silently. Zero
// values still mean "use the default" (withDefaults fills them in); what is
// rejected here is an explicitly invalid request — a negative or NaN rate,
// an inverted rate window, a negative duration, or a grandmaster index no
// node has.
func (c Config) validate(nodes []NodeControl) error {
	for _, r := range []struct {
		name string
		val  float64
	}{
		{"RedundantMinPerHour", c.RedundantMinPerHour},
		{"RedundantMaxPerHour", c.RedundantMaxPerHour},
	} {
		if math.IsNaN(r.val) || math.IsInf(r.val, 0) {
			return fmt.Errorf("faultinject: %s = %v is not a finite rate", r.name, r.val)
		}
		if r.val < 0 {
			return fmt.Errorf("faultinject: %s = %v is negative", r.name, r.val)
		}
	}
	if c.RedundantMinPerHour > 0 && c.RedundantMaxPerHour > 0 &&
		c.RedundantMaxPerHour < c.RedundantMinPerHour {
		return fmt.Errorf("faultinject: redundant rate window inverted (%v..%v per hour)",
			c.RedundantMinPerHour, c.RedundantMaxPerHour)
	}
	for _, d := range []struct {
		name string
		val  time.Duration
	}{
		{"GMPeriod", c.GMPeriod}, {"Downtime", c.Downtime},
		{"DowntimeJitter", c.DowntimeJitter}, {"Start", c.Start},
	} {
		if d.val < 0 {
			return fmt.Errorf("faultinject: %s = %v is negative", d.name, d.val)
		}
	}
	if c.GMIndex < 0 {
		return fmt.Errorf("faultinject: GMIndex = %d is negative", c.GMIndex)
	}
	for _, n := range nodes {
		if c.GMIndex >= n.NumVMs() {
			return fmt.Errorf("faultinject: GMIndex = %d out of range for node %s (%d VMs)",
				c.GMIndex, n.ControlName(), n.NumVMs())
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.GMPeriod <= 0 {
		c.GMPeriod = time.Hour
	}
	if c.RedundantMinPerHour <= 0 {
		c.RedundantMinPerHour = 1
	}
	if c.RedundantMaxPerHour < c.RedundantMinPerHour {
		c.RedundantMaxPerHour = 12
	}
	if c.Downtime <= 0 {
		c.Downtime = 45 * time.Second
	}
	if c.DowntimeJitter <= 0 {
		c.DowntimeJitter = 10 * time.Second
	}
	if c.Start <= 0 {
		c.Start = 2 * time.Minute
	}
	return c
}

// Stats summarises what the injector did — the numbers §III-C reports.
type Stats struct {
	TotalFailures     int
	GMFailures        int
	RedundantFailures int
	SkippedByGuard    int // injections suppressed by the fault hypothesis
	Reboots           int
	// NetworkFaults counts chaos-engine actions observed alongside this
	// campaign (see NoteNetworkFault) — zero unless a chaos plan runs.
	NetworkFaults int
}

// String formats the stats like the paper's summary sentence.
func (s Stats) String() string {
	base := fmt.Sprintf("%d fail-silent clock synchronization VMs, %d of which were grandmaster clock failures (%d redundant, %d suppressed by the fault hypothesis, %d reboots)",
		s.TotalFailures, s.GMFailures, s.RedundantFailures, s.SkippedByGuard, s.Reboots)
	if s.NetworkFaults > 0 {
		base += fmt.Sprintf("; %d network chaos actions", s.NetworkFaults)
	}
	return base
}

// Injector drives fault injection over a set of nodes.
type Injector struct {
	cfg   Config
	sched *sim.Scheduler
	rng   *sim.Stream
	nodes []NodeControl

	gmTicker *sim.Ticker
	redTicks []*sim.Ticker
	gmNext   int
	stats    Stats
	stopped  bool
}

// New creates an injector over the given nodes. It rejects invalid
// configurations (negative or NaN rates, an inverted rate window, a
// GMIndex no node has) instead of clamping them.
func New(sched *sim.Scheduler, rng *sim.Stream, nodes []NodeControl, cfg Config) (*Injector, error) {
	if len(nodes) == 0 {
		return nil, errors.New("faultinject: no nodes")
	}
	if err := cfg.validate(nodes); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.withDefaults(), sched: sched, rng: rng, nodes: nodes}, nil
}

// Stats reports the injection summary so far.
func (in *Injector) Stats() Stats { return in.stats }

// NoteNetworkFault records one network chaos action in the campaign stats.
// Wire it as the chaos engine's action observer to compose the two
// injectors' accounting.
func (in *Injector) NoteNetworkFault() { in.stats.NetworkFaults++ }

// Start schedules the injection campaigns.
func (in *Injector) Start() error {
	// Grandmaster rotation: one GM shutdown per GMPeriod, cycling
	// dev1, dev2, … sequentially. The first fire is anchored to the absolute
	// Start instant, so a warm-started injector attached after t=0 fires at
	// the same instants a cold t=0 injector would.
	t, err := in.sched.Every(sim.Time(in.cfg.Start), in.cfg.GMPeriod, in.failNextGM)
	if err != nil {
		return err
	}
	in.gmTicker = t

	// Redundant-VM random shutdowns: draw the next delay from the bounded
	// rate window independently per node.
	for i := range in.nodes {
		i := i
		in.scheduleRedundant(i)
	}
	return nil
}

// Stop halts future injections (running reboots still complete).
func (in *Injector) Stop() {
	in.stopped = true
	if in.gmTicker != nil {
		in.gmTicker.Stop()
	}
	for _, t := range in.redTicks {
		if t != nil {
			t.Stop()
		}
	}
}

func (in *Injector) failNextGM() {
	if in.stopped {
		return
	}
	node := in.nodes[in.gmNext%len(in.nodes)]
	in.gmNext++
	in.fail(node, in.cfg.GMIndex, true)
}

func (in *Injector) scheduleRedundant(nodeIdx int) {
	if in.stopped {
		return
	}
	// Rate in [min, max] failures per hour → delay = 1h / rate.
	rate := in.cfg.RedundantMinPerHour
	if in.rng != nil {
		rate += in.rng.Float64() * (in.cfg.RedundantMaxPerHour - in.cfg.RedundantMinPerHour)
	}
	delay := time.Duration(float64(time.Hour) / rate)
	// Absolute anchor, same rationale as the GM rotation above.
	in.sched.At(sim.Time(in.cfg.Start+delay), func() {
		if in.stopped {
			return
		}
		node := in.nodes[nodeIdx]
		red := in.redundantIndex(node)
		in.fail(node, red, false)
		in.scheduleRedundantNext(nodeIdx)
	})
}

func (in *Injector) scheduleRedundantNext(nodeIdx int) {
	if in.stopped {
		return
	}
	rate := in.cfg.RedundantMinPerHour
	if in.rng != nil {
		rate += in.rng.Float64() * (in.cfg.RedundantMaxPerHour - in.cfg.RedundantMinPerHour)
	}
	delay := time.Duration(float64(time.Hour) / rate)
	in.sched.After(delay, func() {
		if in.stopped {
			return
		}
		node := in.nodes[nodeIdx]
		red := in.redundantIndex(node)
		in.fail(node, red, false)
		in.scheduleRedundantNext(nodeIdx)
	})
}

// redundantIndex picks a non-GM VM on the node (VM 1 in the paper's
// two-VM configuration).
func (in *Injector) redundantIndex(node NodeControl) int {
	for i := 0; i < node.NumVMs(); i++ {
		if i != in.cfg.GMIndex {
			return i
		}
	}
	return -1
}

// fail injects one fail-silent shutdown, enforcing the fault hypothesis:
// if the node's other clock-synchronization VM is already down, the
// injection is suppressed (the paper's tool does the same).
func (in *Injector) fail(node NodeControl, vm int, isGM bool) {
	if vm < 0 || vm >= node.NumVMs() {
		return
	}
	if node.VMFailed(vm) {
		in.stats.SkippedByGuard++
		return
	}
	for i := 0; i < node.NumVMs(); i++ {
		if i != vm && node.VMFailed(i) {
			in.stats.SkippedByGuard++
			return // both VMs of a node must never be down simultaneously
		}
	}
	if err := node.InjectFail(vm); err != nil {
		return
	}
	in.stats.TotalFailures++
	if isGM {
		in.stats.GMFailures++
	} else {
		in.stats.RedundantFailures++
	}
	down := in.cfg.Downtime
	if in.rng != nil && in.cfg.DowntimeJitter > 0 {
		down += time.Duration(in.rng.Int63n(2*int64(in.cfg.DowntimeJitter))) - in.cfg.DowntimeJitter
	}
	in.sched.After(down, func() {
		if err := node.InjectReboot(vm); err == nil {
			in.stats.Reboots++
		}
	})
}
