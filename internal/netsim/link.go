package netsim

import (
	"fmt"
	"time"

	"gptpfta/internal/sim"
)

// LinkConfig describes a full-duplex point-to-point link.
type LinkConfig struct {
	// Propagation is the nominal one-way latency (cable + PHY + MAC).
	Propagation time.Duration
	// JitterNS is the 1-sigma Gaussian per-frame latency variation,
	// truncated so latency never drops below half the nominal value.
	JitterNS float64
	// LossProb is the per-frame probability of silent loss (CRC errors,
	// receive-queue overruns). Protocol layers must tolerate it: a lost
	// Sync or FollowUp skips one measurement interval, a lost pdelay
	// exchange skips one link-delay sample. It needs LossRNG.
	LossProb float64
	// LossRNG is the dedicated random stream for loss decisions. A link
	// without one never drops a frame and never draws for loss, whatever
	// loss model is installed.
	//
	// Determinism contract: with LossRNG set, Send draws exactly one
	// uniform from it per frame — independent of LossProb, of any
	// installed loss model, and of the draw's outcome — so enabling a
	// zero-rate loss model (or flipping LossProb between zero and
	// non-zero) never perturbs the link's main stream or any downstream
	// seed stream. core gives every link its own "loss/<name>" stream.
	LossRNG *sim.Stream
}

// LossModel decides per-frame loss for a link direction-agnostically. The
// chaos engine installs models dynamically (burst loss); implementations
// must draw a fixed number of values from rng per call regardless of their
// parameters so that a zero-rate model is behaviourally invisible.
type LossModel interface {
	// Drop reports whether the frame is lost. u is the per-frame uniform
	// the link already drew from its loss stream; rng is that same stream
	// for any additional draws (state transitions).
	Drop(u float64, rng *sim.Stream) bool
}

// DelayAttack is an attacker-controlled per-frame delay hook: an on-path
// adversary that holds selected frames on the wire. ExtraDelayNS returns
// the additional one-way latency for frame f travelling in direction dir
// (0 = ends[0]→ends[1]).
//
// Contract: the returned delay must be non-negative — an on-path attacker
// can hold frames back but never accelerate them. Negative returns are
// clamped to zero. Implementations must not draw from the link's RNG
// streams (an installed attack must not perturb jitter or loss draws).
type DelayAttack interface {
	ExtraDelayNS(f *Frame, dir int) float64
}

// Link connects two ports. Frames sent into one end are delivered to the
// device at the other end after the propagation delay plus jitter. The two
// directions share the same nominal delay (symmetric medium); asymmetry in
// observed path latency arises from bridge residence times — or from a
// chaos-injected asymmetric delay shift (SetDelayOverride).
type Link struct {
	sched *sim.Scheduler
	// frames is the scheduler's frame pool: frames dropped on the wire go
	// back to it.
	frames *FramePool
	rng    *sim.Stream
	cfg    LinkConfig
	ends   [2]*Port
	// deliver holds one prebound delivery callback per direction so Send
	// can schedule through AtArg without allocating a closure per frame.
	deliver [2]func(any)

	// Dynamic fault state (chaos engine), nil when no plan is active.
	// lossModel replaces the configured loss probability; delayAttack, when
	// set, is an on-path adversary adding per-frame delay (SetDelayAttack).
	lossModel   LossModel
	delayAttack DelayAttack
	linkState
}

// linkState is the link's scalar state, copied whole by Snapshot. The
// fault fields are all zero when no plan is active, in which case none of
// them draws randomness or alters scheduling.
type linkState struct {
	// lastDelivery enforces per-direction FIFO ordering: a wire cannot
	// reorder frames, whatever the jitter draw says.
	lastDelivery [2]sim.Time
	sent         uint64
	lost         uint64

	down bool
	// extraDelay adds latency to both directions; asymDelay additionally
	// to the a->b direction only, breaking the symmetric-medium assumption
	// gPTP's pdelay mechanism relies on.
	extraDelay time.Duration
	asymDelay  time.Duration
	// wanExtra/wanAsym are the WAN drift-process axis (SetWanDelay): a
	// slowly wandering baseline for wide-area links, additive on top of the
	// chaos override so the two controllers never clobber each other.
	// wanExtra is kept non-negative by SetWanDelay; wanAsym applies to the
	// a->b direction only and may have either sign.
	wanExtra time.Duration
	wanAsym  time.Duration
	// dropBefore marks, per direction, the last delivery instant that was
	// scheduled before the link last came back up: those frames were on
	// the wire during the outage and die at their delivery instant.
	dropBefore  [2]sim.Time
	faultedDrop uint64
}

// Lost reports how many frames the link dropped by stochastic loss.
func (l *Link) Lost() uint64 { return l.lost }

// FaultDropped reports frames discarded by injected faults (link down,
// frames caught in flight during an outage).
func (l *Link) FaultDropped() uint64 { return l.faultedDrop }

// Sent reports how many frames were handed to the link for transmission,
// including those subsequently dropped; delivered frames are
// Sent - Lost - FaultDropped.
func (l *Link) Sent() uint64 { return l.sent }

// Connect attaches two ports with a link. It returns an error if either
// port is already attached, or if cfg asks for loss without a loss stream.
func Connect(sched *sim.Scheduler, rng *sim.Stream, cfg LinkConfig, a, b *Port) (*Link, error) {
	if a.link != nil || b.link != nil {
		return nil, fmt.Errorf("netsim: port already connected (%s, %s)", a.Name, b.Name)
	}
	if cfg.LossProb > 0 && cfg.LossRNG == nil {
		return nil, fmt.Errorf("netsim: link %s-%s: loss probability %g needs a LossRNG", a.Name, b.Name, cfg.LossProb)
	}
	l := &Link{sched: sched, frames: PoolOf(sched), rng: rng, cfg: cfg, ends: [2]*Port{a, b}}
	l.deliver[0] = func(x any) { l.finishDelivery(0, x.(*Frame)) } // a -> b
	l.deliver[1] = func(x any) { l.finishDelivery(1, x.(*Frame)) } // b -> a
	a.link = l
	b.link = l
	return l, nil
}

// End returns endpoint i (0 or 1) for topology inspection (the chaos
// engine's partition actions match links by their endpoint device names).
func (l *Link) End(i int) *Port { return l.ends[i] }

// SetDown marks the link physically severed (true) or restored (false). A
// down link drops frames at Send; frames already in flight die at their
// delivery instant, including those whose delivery would land after the
// restoration (they were on the wire during the outage).
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		// Everything scheduled up to now was sent before the restoration
		// and therefore crossed the outage; kill it at delivery.
		l.dropBefore = l.lastDelivery
	}
}

// Down reports whether the link is currently severed.
func (l *Link) Down() bool { return l.down }

// SetLossModel installs (or, with nil, removes) a dynamic loss model that
// replaces the static LossProb. Models draw from the link's dedicated loss
// stream, keeping the main jitter stream untouched; on a link without one
// the model drops nothing. See the LinkConfig.LossRNG determinism contract.
func (l *Link) SetLossModel(m LossModel) { l.lossModel = m }

// Combined delay contract — three additive axes on top of the configured
// propagation + jitter base:
//
//	delay(dir, f) = base(jitter, floored at Propagation/2)
//	              + extraDelay + [dir==0] asymDelay     (SetDelayOverride)
//	              + wanExtra   + [dir==0] wanAsym       (SetWanDelay)
//	              + max(0, attack(f, dir))              (SetDelayAttack)
//
// The axes are independent controllers (chaos engine, WAN drift process,
// on-path adversary) and compose by pure addition; none of them draws from
// the link's RNG streams. The attack term is clamped non-negative per
// frame. FuzzLinkDelay pins this contract across all three axes at once.

// SetDelayOverride injects extra one-way latency: extra applies to both
// directions, asym additionally to the a->b direction only (an asymmetry
// invisible to pdelay's round-trip measurement). Zero values clear the
// override.
func (l *Link) SetDelayOverride(extra, asym time.Duration) {
	l.extraDelay = extra
	l.asymDelay = asym
}

// SetWanDelay sets the WAN drift axis: extra latency on both directions
// plus a signed asymmetry on the a->b direction only, additive with any
// chaos-installed SetDelayOverride. A negative extra is clamped to zero
// (the drift process models added wide-area queueing, never a faster-than-
// nominal path). Zero values clear the axis.
func (l *Link) SetWanDelay(extra, asym time.Duration) {
	if extra < 0 {
		extra = 0
	}
	l.wanExtra = extra
	l.wanAsym = asym
}

// WanDelay reports the current WAN drift axis (extra, asym).
func (l *Link) WanDelay() (extra, asym time.Duration) { return l.wanExtra, l.wanAsym }

// DirectionalDelay reports the deterministic one-way delay in direction
// dir (0 = ends[0]->ends[1]) with jitter and per-frame attacks excluded:
// the expected latency a time-transfer exchange over this link observes.
// The WAN tier's two-way-exchange error model uses the directional
// difference to compute the asymmetry error a site-level reading inherits.
func (l *Link) DirectionalDelay(dir int) time.Duration {
	d := l.cfg.Propagation + l.extraDelay + l.wanExtra
	if dir == 0 {
		d += l.asymDelay + l.wanAsym
	}
	return d
}

// SetDelayAttack installs (or, with nil, removes) an on-path per-frame
// delay adversary. Unlike SetDelayOverride — which shifts every frame in a
// direction — an attack selects its victims frame by frame (e.g. only Sync
// messages of one domain), modelling a selective gPTP delay attacker.
func (l *Link) SetDelayAttack(a DelayAttack) { l.delayAttack = a }

// Send transmits a frame from port "from" toward the peer. Delivery is
// scheduled after propagation plus jitter; deliveries in one direction
// never reorder. A dropped frame goes back to the scheduler's pool.
func (l *Link) Send(from *Port, f *Frame) {
	dir := 0
	if l.ends[1] == from {
		dir = 1
	}
	l.sent++
	if l.down {
		l.faultedDrop++
		l.frames.put(f)
		return
	}
	if l.dropFrame() {
		l.lost++
		l.frames.put(f)
		return
	}
	at := l.sched.Now().Add(l.delay(dir, f))
	if at <= l.lastDelivery[dir] {
		at = l.lastDelivery[dir] + 1
	}
	l.lastDelivery[dir] = at
	l.sched.AtArg(at, l.deliver[dir], f)
}

// dropFrame decides stochastic loss. Draw-order contract: exactly one
// uniform is consumed from the loss stream per frame whatever the
// configured rates, so zero-rate configurations are stream-invisible; an
// installed loss model may consume additional draws from the loss stream
// only (its burst state machine), never from the main stream. A link
// without a loss stream never drops and never draws.
func (l *Link) dropFrame() bool {
	if l.cfg.LossRNG == nil {
		return false
	}
	u := l.cfg.LossRNG.Float64()
	if l.lossModel != nil {
		return l.lossModel.Drop(u, l.cfg.LossRNG)
	}
	return u < l.cfg.LossProb
}

// finishDelivery hands the frame to the receiving device unless an injected
// fault killed it in flight: the link is down at the delivery instant, or
// the delivery was scheduled before the link last came back up.
func (l *Link) finishDelivery(dir int, f *Frame) {
	if l.down || l.sched.Now() <= l.dropBefore[dir] {
		l.faultedDrop++
		l.frames.put(f)
		return
	}
	p := l.ends[1-dir]
	p.Owner.Receive(p, f)
}

// linkSnapshot captures a link's mutable state for warm-start forks,
// including the installed loss model and its internal state (a chaos plan
// may have installed one before the fork boundary).
type linkSnapshot struct {
	linkState
	lossModel   LossModel
	lossState   any // nested snapshot when the model is stateful
	delayAttack DelayAttack
	attackState any // nested snapshot when the attack is stateful
}

// Snapshot implements sim.Snapshotter. The RNG stream positions are
// restored separately by sim.Streams; in-flight frames live in the
// scheduler's snapshot as AtArg descriptors.
func (l *Link) Snapshot() any {
	sn := &linkSnapshot{linkState: l.linkState, lossModel: l.lossModel, delayAttack: l.delayAttack}
	if s, ok := l.lossModel.(sim.Snapshotter); ok {
		sn.lossState = s.Snapshot()
	}
	if s, ok := l.delayAttack.(sim.Snapshotter); ok {
		sn.attackState = s.Snapshot()
	}
	return sn
}

// Restore implements sim.Snapshotter.
func (l *Link) Restore(snap any) {
	sn := snap.(*linkSnapshot)
	l.linkState = sn.linkState
	l.lossModel = sn.lossModel
	if s, ok := l.lossModel.(sim.Snapshotter); ok && sn.lossState != nil {
		s.Restore(sn.lossState)
	}
	l.delayAttack = sn.delayAttack
	if s, ok := l.delayAttack.(sim.Snapshotter); ok && sn.attackState != nil {
		s.Restore(sn.attackState)
	}
}

func (l *Link) delay(dir int, f *Frame) time.Duration {
	d := float64(l.cfg.Propagation)
	if l.rng != nil && l.cfg.JitterNS > 0 {
		d += l.rng.NormFloat64() * l.cfg.JitterNS
	}
	min := float64(l.cfg.Propagation) / 2
	if d < min {
		d = min
	}
	d += float64(l.extraDelay) + float64(l.wanExtra)
	if dir == 0 {
		d += float64(l.asymDelay) + float64(l.wanAsym)
	}
	if l.delayAttack != nil && f != nil {
		if e := l.delayAttack.ExtraDelayNS(f, dir); e > 0 {
			d += e
		}
	}
	return time.Duration(d)
}
