package chaos

import (
	"fmt"
	"sort"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// Topology is the view of the simulated network the engine manipulates.
// core.System implements it over its named links and bridges.
type Topology interface {
	// Link resolves a link by topology name ("sw1-sw2", "c11"), nil if
	// unknown.
	Link(name string) *netsim.Link
	// Bridge resolves a bridge by name ("sw1"), nil if unknown.
	Bridge(name string) *netsim.Bridge
	// Links returns every named link, for partition cut-set computation.
	Links() map[string]*netsim.Link
}

// SiteTopology extends Topology for multi-site fabrics. A plan using the
// WAN-tier operations (site-fail, site-restore, wan-partition, wan-heal)
// can only bind to a topology implementing it.
type SiteTopology interface {
	// NumSites reports the number of sites.
	NumSites() int
	// SiteBridgeNames lists the switch names of one site.
	SiteBridgeNames(site int) []string
	// WanLinkName names the gateway-chain link joining site i and i+1,
	// for i in [0, NumSites−1).
	WanLinkName(i int) string
}

// Engine executes a Plan against a Topology on the simulation scheduler.
// It consumes no randomness itself — stochastic loss draws come from the
// links' dedicated loss streams — so two same-seed runs of the same plan
// are bit-identical.
type Engine struct {
	sched *sim.Scheduler
	topo  Topology
	plan  *Plan

	started     bool
	tickers     []*sim.Ticker
	partitioned map[string]*netsim.Link
	// wanPartitioned tracks chain links severed by wan-partition, healed
	// separately from device-level partitions (wan-heal vs heal).
	wanPartitioned map[string]*netsim.Link
	sites          SiteTopology // non-nil iff the plan uses WAN-tier ops
	observer       func(Action)

	obsActions map[string]*obs.Counter
	obsReverts *obs.Counter
}

// New binds a validated plan to a topology, resolving every referenced
// name up front so a typo fails at construction, not mid-campaign.
func New(sched *sim.Scheduler, topo Topology, plan *Plan) (*Engine, error) {
	if plan == nil {
		return nil, fmt.Errorf("chaos: nil plan")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	devices := map[string]bool{}
	for _, l := range topo.Links() {
		devices[l.End(0).Owner.DeviceName()] = true
		devices[l.End(1).Owner.DeviceName()] = true
	}
	sites, _ := topo.(SiteTopology)
	for i := range plan.Actions {
		a := &plan.Actions[i]
		for _, name := range a.Links {
			if topo.Link(name) == nil {
				return nil, fmt.Errorf("chaos: action %d (%s): unknown link %q", i, a.Op, name)
			}
		}
		for _, name := range a.Bridges {
			if topo.Bridge(name) == nil {
				return nil, fmt.Errorf("chaos: action %d (%s): unknown bridge %q", i, a.Op, name)
			}
		}
		for _, g := range a.Groups {
			for _, dev := range g {
				if !devices[dev] {
					return nil, fmt.Errorf("chaos: action %d (%s): unknown device %q", i, a.Op, dev)
				}
			}
		}
		if len(a.Sites) > 0 || a.Op == OpWanHeal {
			if sites == nil {
				return nil, fmt.Errorf("chaos: action %d (%s): topology has no site tier", i, a.Op)
			}
			for _, s := range a.Sites {
				if s >= sites.NumSites() {
					return nil, fmt.Errorf("chaos: action %d (%s): site %d out of range (have %d)", i, a.Op, s, sites.NumSites())
				}
			}
		}
	}
	return &Engine{
		sched:          sched,
		topo:           topo,
		plan:           plan,
		partitioned:    make(map[string]*netsim.Link),
		wanPartitioned: make(map[string]*netsim.Link),
		sites:          sites,
	}, nil
}

// Plan returns the bound plan.
func (e *Engine) Plan() *Plan { return e.plan }

// SetActionObserver installs a callback invoked after every action firing
// and revert — the composition hook the VM fault injector uses to count
// network faults alongside its own campaign.
func (e *Engine) SetActionObserver(fn func(Action)) { e.observer = fn }

// Instrument registers per-op action counters with reg. Nil-safe handles
// mean an uninstrumented engine pays nothing.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.obsActions = make(map[string]*obs.Counter, len(Ops))
	for _, op := range Ops {
		e.obsActions[op] = reg.Counter("chaos_actions", obs.L("op", op))
	}
	e.obsReverts = reg.Counter("chaos_reverts")
}

// Start schedules every action's triggers. Periodic actions run until Stop.
func (e *Engine) Start() error {
	if e.started {
		return fmt.Errorf("chaos: engine already started")
	}
	e.started = true
	for i := range e.plan.Actions {
		a := &e.plan.Actions[i]
		if a.Every > 0 {
			first := e.sched.Now().Add(a.Every.Std())
			if a.Start > 0 {
				// Anchor to the absolute plan instant, not the engine start:
				// a warm-started engine attached after t=0 then fires at the
				// same instants a cold t=0 engine would.
				first = sim.Time(a.Start)
			}
			tick, err := e.sched.Every(first, a.Every.Std(), func() { e.apply(a) })
			if err != nil {
				return err
			}
			e.tickers = append(e.tickers, tick)
			continue
		}
		e.sched.At(sim.Time(a.At), func() { e.apply(a) })
	}
	return nil
}

// Stop cancels periodic triggers. Already-scheduled reverts still fire, so
// a stopped engine leaves no fault permanently latched unless the plan
// explicitly made it permanent.
func (e *Engine) Stop() {
	for _, t := range e.tickers {
		t.Stop()
	}
	e.tickers = nil
}

// apply fires one action and, for self-limiting operations, schedules its
// revert.
func (e *Engine) apply(a *Action) {
	switch a.Op {
	case OpLinkDown:
		e.eachLink(a, func(l *netsim.Link) { l.SetDown(true) })
	case OpLinkUp:
		e.eachLink(a, func(l *netsim.Link) { l.SetDown(false) })
	case OpBurstLoss:
		e.eachLink(a, func(l *netsim.Link) {
			l.SetLossModel(&netsim.GilbertElliott{
				GoodLoss:  a.GoodLoss,
				BadLoss:   a.BadLoss,
				GoodToBad: a.GoodToBad,
				BadToGood: a.BadToGood,
			})
		})
	case OpDelaySpike:
		e.eachLink(a, func(l *netsim.Link) { l.SetDelayOverride(a.Extra.Std(), 0) })
	case OpAsymShift:
		e.eachLink(a, func(l *netsim.Link) { l.SetDelayOverride(a.Extra.Std(), a.Asym.Std()) })
	case OpBridgeFail:
		e.eachBridge(a, func(b *netsim.Bridge) { b.Fail() })
	case OpBridgeRestore:
		e.eachBridge(a, func(b *netsim.Bridge) { b.Recover() })
	case OpPartition:
		for name, l := range e.cutSet(a) {
			l.SetDown(true)
			e.partitioned[name] = l
		}
	case OpHeal:
		e.heal()
	case OpSiteFail:
		e.eachSiteBridge(a, func(b *netsim.Bridge) { b.Fail() })
	case OpSiteRestore:
		e.eachSiteBridge(a, func(b *netsim.Bridge) { b.Recover() })
	case OpWanAsymDrift:
		e.rampWanDelay(a)
	case OpWanPartition:
		for name, l := range e.wanCutSet(a) {
			l.SetDown(true)
			e.wanPartitioned[name] = l
		}
	case OpWanHeal:
		e.wanHeal()
	}
	e.obsActions[a.Op].Inc()
	if e.observer != nil {
		e.observer(*a)
	}
	if a.reverts() {
		e.sched.After(a.Duration.Std(), func() { e.revert(a) })
	}
}

// revert undoes one self-limiting action after its Duration.
func (e *Engine) revert(a *Action) {
	switch a.Op {
	case OpLinkDown:
		e.eachLink(a, func(l *netsim.Link) { l.SetDown(false) })
	case OpBurstLoss:
		e.eachLink(a, func(l *netsim.Link) { l.SetLossModel(nil) })
	case OpDelaySpike, OpAsymShift:
		e.eachLink(a, func(l *netsim.Link) { l.SetDelayOverride(0, 0) })
	case OpBridgeFail:
		e.eachBridge(a, func(b *netsim.Bridge) { b.Recover() })
	case OpPartition:
		e.heal()
	case OpSiteFail:
		e.eachSiteBridge(a, func(b *netsim.Bridge) { b.Recover() })
	case OpWanPartition:
		e.wanHeal()
	}
	e.obsReverts.Inc()
}

func (e *Engine) heal() {
	for _, l := range e.partitioned {
		l.SetDown(false)
	}
	e.partitioned = make(map[string]*netsim.Link)
}

func (e *Engine) wanHeal() {
	for _, l := range e.wanPartitioned {
		l.SetDown(false)
	}
	e.wanPartitioned = make(map[string]*netsim.Link)
}

func (e *Engine) eachSiteBridge(a *Action, fn func(*netsim.Bridge)) {
	for _, s := range a.Sites {
		for _, name := range e.sites.SiteBridgeNames(s) {
			fn(e.topo.Bridge(name))
		}
	}
}

// wanCutSet computes the gateway-chain links severed by a wan-partition:
// every chain link joining a listed site to an unlisted one.
func (e *Engine) wanCutSet(a *Action) map[string]*netsim.Link {
	in := map[int]bool{}
	for _, s := range a.Sites {
		in[s] = true
	}
	cut := map[string]*netsim.Link{}
	for i := 0; i < e.sites.NumSites()-1; i++ {
		if in[i] != in[i+1] {
			name := e.sites.WanLinkName(i)
			cut[name] = e.topo.Link(name)
		}
	}
	return cut
}

// wanRampSteps is the fixed step count of a wan-asym-drift ramp: enough
// steps that each increment stays well below the validity threshold (a
// slow drift, not a detectable step), few enough that the schedule stays
// cheap. Fixed so the ramp's event sequence is shard- and fork-invariant.
const wanRampSteps = 8

// rampWanDelay schedules a linear ramp of each target link's WAN delay
// axis from its value at firing time to (Extra, Asym) over Duration, then
// holds. The step closures capture only the link pointer and immutable
// step values, so they replay bit-identically across mid-ramp forks.
func (e *Engine) rampWanDelay(a *Action) {
	for _, name := range a.Links {
		l := e.topo.Link(name)
		baseE, baseA := l.WanDelay()
		targE, targA := a.Extra.Std(), a.Asym.Std()
		for k := 1; k <= wanRampSteps; k++ {
			frac := float64(k) / wanRampSteps
			stepE := baseE + time.Duration(float64(targE-baseE)*frac)
			stepA := baseA + time.Duration(float64(targA-baseA)*frac)
			e.sched.After(a.Duration.Std()*time.Duration(k)/wanRampSteps,
				func() { l.SetWanDelay(stepE, stepA) })
		}
	}
}

func (e *Engine) eachLink(a *Action, fn func(*netsim.Link)) {
	for _, name := range a.Links {
		fn(e.topo.Link(name))
	}
}

func (e *Engine) eachBridge(a *Action, fn func(*netsim.Bridge)) {
	for _, name := range a.Bridges {
		fn(e.topo.Bridge(name))
	}
}

// engineSnapshot captures the engine's fault bookkeeping for mid-fault
// forks: the live partition cut-sets, by link name.
type engineSnapshot struct {
	partitioned    []string
	wanPartitioned []string
}

// Snapshot implements sim.Snapshotter for mid-fault warm-start forks. A
// revert closure already queued in the scheduler captures the engine
// pointer; restoring the partition maps in place keeps that closure's heal
// semantics identical on every replay. Triggers and pending reverts
// themselves live in the scheduler's snapshot.
func (e *Engine) Snapshot() any {
	sn := &engineSnapshot{}
	for name := range e.partitioned {
		sn.partitioned = append(sn.partitioned, name)
	}
	for name := range e.wanPartitioned {
		sn.wanPartitioned = append(sn.wanPartitioned, name)
	}
	sort.Strings(sn.partitioned)
	sort.Strings(sn.wanPartitioned)
	return sn
}

// Restore implements sim.Snapshotter.
func (e *Engine) Restore(snap any) {
	sn := snap.(*engineSnapshot)
	e.partitioned = make(map[string]*netsim.Link, len(sn.partitioned))
	for _, name := range sn.partitioned {
		e.partitioned[name] = e.topo.Link(name)
	}
	e.wanPartitioned = make(map[string]*netsim.Link, len(sn.wanPartitioned))
	for _, name := range sn.wanPartitioned {
		e.wanPartitioned[name] = e.topo.Link(name)
	}
}

// cutSet computes the links severed by a partition: every link whose two
// endpoint devices are assigned to different groups. Devices absent from
// all groups keep their links.
func (e *Engine) cutSet(a *Action) map[string]*netsim.Link {
	group := map[string]int{}
	for gi, g := range a.Groups {
		for _, dev := range g {
			group[dev] = gi
		}
	}
	cut := map[string]*netsim.Link{}
	for name, l := range e.topo.Links() {
		g0, ok0 := group[l.End(0).Owner.DeviceName()]
		g1, ok1 := group[l.End(1).Owner.DeviceName()]
		if ok0 && ok1 && g0 != g1 {
			cut[name] = l
		}
	}
	return cut
}
