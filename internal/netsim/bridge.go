package netsim

import (
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/sim"
)

// ResidenceModel describes the queueing + store-and-forward delay a frame
// experiences inside a bridge, per priority class. The distribution is a
// base latency plus half-normal jitter plus a rare heavy tail (bursty
// best-effort interference), which is what produces the multi-microsecond
// spread between minimum and maximum path latencies (the paper's reading
// error E ≈ 5 µs) while typical latencies remain tightly grouped.
type ResidenceModel struct {
	Base     time.Duration
	JitterNS float64 // half-normal sigma
	TailProb float64
	TailMin  time.Duration
	TailMax  time.Duration
}

// Draw samples a residence time.
func (m ResidenceModel) Draw(rng *sim.Stream) time.Duration {
	d := float64(m.Base)
	if rng != nil {
		if m.JitterNS > 0 {
			j := rng.NormFloat64() * m.JitterNS
			if j < 0 {
				j = -j
			}
			d += j
		}
		if m.TailProb > 0 && rng.Float64() < m.TailProb {
			d += float64(m.TailMin) + rng.Float64()*float64(m.TailMax-m.TailMin)
		}
	}
	return time.Duration(d)
}

// RelayHook lets a protocol layer (the gPTP time-aware bridge logic) claim
// frames before generic forwarding. Handle returns true if the frame was
// consumed. Handle must not retain f after it returns — the bridge recycles
// pool-owned frames once a hook consumes them; the payload is the hook's
// to keep or recycle.
type RelayHook interface {
	Handle(b *Bridge, ingress int, f *Frame, rxTS float64) bool
}

// BridgeConfig configures a TSN bridge.
type BridgeConfig struct {
	Ports int
	// Residence maps priority class (0–7) to residence model. Missing
	// classes, and frames outside 0–7, fall back to PriorityBestEffort's
	// model.
	Residence map[int]ResidenceModel
}

// Bridge is an integrated TSN switch: static unicast routes, static
// multicast membership (the measurement VLAN), a free-running local clock
// used for residence-time measurement, and a relay hook for gPTP.
type Bridge struct {
	name   string
	sched  *sim.Scheduler
	frames *FramePool
	rng    *sim.Stream
	clk    *clock.PHC
	ports  []Port
	// residence is the residence model per priority class, fallbacks
	// resolved at build time.
	residence [PriorityPTP + 1]ResidenceModel

	unicast map[Address]int
	groups  map[Address][]int
	hook    RelayHook
	egress  []EgressScheduler // per port; nil entries are unshaped
	// txFns holds one prebound transmit callback per port so the generic
	// forwarding path schedules through AtArg/AfterArg without allocating
	// a closure per frame. txAtFn is the equivalent runner for TransmitAt
	// jobs (egress-timestamped transmissions carrying an onTx callback).
	txFns  []func(any)
	txAtFn func(any)
	// txAtFree recycles fired TransmitAt jobs. Jobs still queued when a
	// snapshot is taken are deep-copied by the scheduler (txAtJob is a
	// sim.Cloner), so a recycled job is never shared with a fork.
	txAtFree sim.FreeList[txAtJob]
	bridgeState
}

// bridgeState is the bridge's scalar state, copied whole by Snapshot.
type bridgeState struct {
	forwarded uint64
	dropped   uint64

	// failed marks the bridge dead (chaos engine): it drops everything at
	// ingress and egress until recovered.
	failed      bool
	faultedDrop uint64
}

// EgressScheduler computes frame departure instants for a shaped egress
// port — the hook for an 802.1Qbv time-aware shaper. Enqueue returns when
// the frame's transmission completes; an error drops the frame.
type EgressScheduler interface {
	Enqueue(now sim.Time, priority, bytes int) (sim.Time, error)
}

// NewBridge creates a bridge with cfg.Ports ports. clk is the bridge's own
// free-running PHC used for ingress/egress timestamping.
func NewBridge(name string, sched *sim.Scheduler, rng *sim.Stream, clk *clock.PHC, cfg BridgeConfig) *Bridge {
	b := &Bridge{
		name:    name,
		sched:   sched,
		frames:  PoolOf(sched),
		rng:     rng,
		clk:     clk,
		unicast: make(map[Address]int),
		groups:  make(map[Address][]int),
		egress:  make([]EgressScheduler, cfg.Ports),
	}
	for p := range b.residence {
		m, ok := cfg.Residence[p]
		if !ok {
			m = cfg.Residence[PriorityBestEffort]
		}
		b.residence[p] = m
	}
	b.ports = make([]Port, cfg.Ports)
	b.txFns = make([]func(any), cfg.Ports)
	for i := range b.ports {
		b.ports[i] = Port{Name: fmt.Sprintf("%s/p%d", name, i), Owner: b, Index: i}
		i := i
		b.txFns[i] = func(x any) { b.Transmit(i, x.(*Frame)) }
	}
	b.txAtFn = func(x any) { b.fireTxAt(x.(*txAtJob)) }
	return b
}

// DeviceName implements Device.
func (b *Bridge) DeviceName() string { return b.name }

// Port returns port i for wiring.
func (b *Bridge) Port(i int) *Port { return &b.ports[i] }

// NumPorts reports the number of ports.
func (b *Bridge) NumPorts() int { return len(b.ports) }

// SetHook installs the gPTP relay hook.
func (b *Bridge) SetHook(h RelayHook) { b.hook = h }

// SetEgressScheduler installs a time-aware shaper on one egress port;
// frames leaving that port are scheduled by it instead of the stochastic
// residence model.
func (b *Bridge) SetEgressScheduler(port int, es EgressScheduler) { b.egress[port] = es }

// Dropped reports frames discarded by egress schedulers (no gate window).
func (b *Bridge) Dropped() uint64 { return b.dropped }

// FaultDropped reports frames discarded because the bridge was failed.
func (b *Bridge) FaultDropped() uint64 { return b.faultedDrop }

// Fail kills the bridge: every frame arriving at ingress or reaching
// egress while failed is dropped (and recycled to the frame pool).
func (b *Bridge) Fail() { b.failed = true }

// Recover brings a failed bridge back. Frames that entered the residence
// pipeline before the failure and whose departure lands after the
// restoration are transmitted normally — an approximation that is
// harmless because residence times are microseconds while injected
// outages are seconds; everything that arrived or departed during the
// outage itself was dropped.
func (b *Bridge) Recover() { b.failed = false }

// Failed reports whether the bridge is currently failed.
func (b *Bridge) Failed() bool { return b.failed }

// AddRoute installs a static unicast route: frames for dst egress on port.
func (b *Bridge) AddRoute(dst Address, port int) { b.unicast[dst] = port }

// AddGroupMember adds a port to a multicast group's membership.
func (b *Bridge) AddGroupMember(group Address, port int) {
	b.groups[group] = append(b.groups[group], port)
}

// Forwarded reports how many frames the bridge has forwarded.
func (b *Bridge) Forwarded() uint64 { return b.forwarded }

// Receive implements Device: the relay hook gets first claim; otherwise the
// frame is forwarded per static routes after a residence delay.
func (b *Bridge) Receive(p *Port, f *Frame) {
	if b.failed {
		b.faultedDrop++
		b.frames.put(f)
		return
	}
	rxTS := b.clk.Timestamp()
	if b.hook != nil && b.hook.Handle(b, p.Index, f, rxTS) {
		b.frames.put(f)
		return
	}
	b.forward(p.Index, f)
}

// forward applies static unicast/multicast forwarding with residence delay.
func (b *Bridge) forward(ingress int, f *Frame) {
	if f.Dst.IsMulticast() {
		for _, egress := range b.groups[f.Dst] {
			if egress == ingress {
				continue
			}
			b.TransmitAfterResidence(egress, b.frames.Clone(f))
		}
		// The original frame dies here; only its clones travel on.
		b.frames.put(f)
		return
	}
	egress, ok := b.unicast[f.Dst]
	if !ok || egress == ingress {
		b.frames.put(f)
		return // no route: drop (static config covers all legitimate traffic)
	}
	b.TransmitAfterResidence(egress, f)
}

// ResidenceFor samples a residence time for the frame's priority class.
func (b *Bridge) ResidenceFor(f *Frame) time.Duration {
	p := f.Priority
	if p < 0 || p >= len(b.residence) {
		p = PriorityBestEffort
	}
	return b.residence[p].Draw(b.rng)
}

// TransmitAfterResidence schedules the frame on egress after a sampled
// residence delay, or through the port's time-aware shaper when one is
// installed (a fixed store-and-forward processing delay plus the shaper's
// gate/queue schedule).
func (b *Bridge) TransmitAfterResidence(egress int, f *Frame) {
	if es := b.egress[egress]; es != nil {
		const processing = 600 * time.Nanosecond // lookup + store-and-forward
		departAt, err := es.Enqueue(b.sched.Now().Add(processing), f.Priority, f.Bytes)
		if err != nil {
			b.dropped++
			b.frames.put(f)
			return
		}
		b.sched.AtArg(departAt, b.txFns[egress], f)
		return
	}
	d := b.ResidenceFor(f)
	b.sched.AfterArg(d, b.txFns[egress], f)
}

// Transmit sends the frame out of the given port immediately, returning the
// bridge-clock egress timestamp. Frames on unconnected ports are dropped.
func (b *Bridge) Transmit(egress int, f *Frame) (txTS float64) {
	txTS = b.clk.Timestamp()
	if b.failed {
		b.faultedDrop++
		b.frames.put(f)
		return txTS
	}
	p := &b.ports[egress]
	if !p.Connected() {
		b.frames.put(f)
		return txTS
	}
	f.Hops++
	b.forwarded++
	p.link.Send(p, f)
	return txTS
}

// txAtJob is a queued TransmitAt transmission. Like the NIC's etfJob, it is
// an arg descriptor so the snapshot engine can deep-copy the frame; onTx
// closures must capture only snapshot-restored components or values never
// mutated after scheduling.
type txAtJob struct {
	egress int
	f      *Frame
	onTx   func(egress int, payload any, txTS float64)
}

// CloneForSnapshot implements sim.Cloner.
func (j *txAtJob) CloneForSnapshot() any {
	c := *j
	c.f = j.f.CloneForSnapshot().(*Frame)
	return &c
}

// fireTxAt transmits a queued TransmitAt job and recycles it. The payload
// is captured before Transmit because a drop recycles (zeroes) the frame;
// payloads are never pooled by netsim, so the reference stays valid for
// onTx.
func (b *Bridge) fireTxAt(j *txAtJob) {
	egress, f, onTx := j.egress, j.f, j.onTx
	b.txAtFree.Put(j)
	payload := f.Payload
	ts := b.Transmit(egress, f)
	if onTx != nil {
		onTx(egress, payload, ts)
	}
}

// newTxAt returns a TransmitAt job, reusing a fired one when available.
func (b *Bridge) newTxAt(egress int, f *Frame, onTx func(egress int, payload any, txTS float64)) *txAtJob {
	j := b.txAtFree.Get()
	*j = txAtJob{egress: egress, f: f, onTx: onTx}
	return j
}

// TransmitAt schedules the frame on egress at true-time delay d and invokes
// onTx with the port, the frame's payload and the egress timestamp when it
// leaves — used by the gPTP relay to measure residence time on the egress
// side. On a shaped port the shaper's schedule replaces d (the relay's
// residence draw): the measured egress timestamp still captures the true
// departure, so the correction field remains exact either way. The call
// allocates nothing once the bridge has recycled a job; callers on a hot
// path pass a prebound onTx.
func (b *Bridge) TransmitAt(egress int, d time.Duration, f *Frame, onTx func(egress int, payload any, txTS float64)) {
	if es := b.egress[egress]; es != nil {
		const processing = 600 * time.Nanosecond
		departAt, err := es.Enqueue(b.sched.Now().Add(processing), f.Priority, f.Bytes)
		if err != nil {
			b.dropped++
			b.frames.put(f)
			return
		}
		b.sched.AtArg(departAt, b.txAtFn, b.newTxAt(egress, f, onTx))
		return
	}
	b.sched.AfterArg(d, b.txAtFn, b.newTxAt(egress, f, onTx))
}

// bridgeSnapshot captures a bridge's mutable state for warm-start forks.
// Routing tables, group membership, the relay hook and egress shapers are
// build-time configuration and are not captured.
type bridgeSnapshot struct {
	bridgeState
	phc any
}

// Snapshot implements sim.Snapshotter.
func (b *Bridge) Snapshot() any { return &bridgeSnapshot{b.bridgeState, b.clk.Snapshot()} }

// Restore implements sim.Snapshotter.
func (b *Bridge) Restore(snap any) {
	sn := snap.(*bridgeSnapshot)
	b.bridgeState = sn.bridgeState
	b.clk.Restore(sn.phc)
}
