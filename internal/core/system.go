package core

import (
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/faultinject"
	"gptpfta/internal/fta"
	"gptpfta/internal/gptp"
	"gptpfta/internal/hypervisor"
	"gptpfta/internal/measure"
	"gptpfta/internal/netsim"
	"gptpfta/internal/obs"
	"gptpfta/internal/phc2sys"
	"gptpfta/internal/ptp4l"
	"gptpfta/internal/sim"
	"gptpfta/internal/wan"
)

// System is one fully wired testbed instance, simulated on one
// sim.Scheduler. Drivers and control callbacks (chaos plans, fault
// injectors, attacks) use Scheduler, Now and LogEvent; EventLog is a read
// view of the log.
type System struct {
	cfg     Config
	sched   *sim.Scheduler
	streams *sim.Streams

	bridges []*netsim.Bridge
	links   []*netsim.Link
	// linkByName and bridgeByName expose the topology to the chaos engine:
	// mesh links are named "sw1-sw2" (lower index first), VM uplinks after
	// their VM ("c11"), gateway-chain links by their end switches
	// ("sw1-sw5"), bridges "sw1".."swN".
	linkByName   map[string]*netsim.Link
	bridgeByName map[string]*netsim.Bridge
	relays       []*gptp.Relay
	nodes        []*hypervisor.Node
	vms          map[string]*hypervisor.CSVM
	agents       map[string]*measure.Agent

	// wanCoord/wanDrift are the wide-area tier (nil unless
	// cfg.WanSync.Enabled on a multi-site fabric).
	wanCoord *wan.Coordinator
	wanDrift *wan.Drift

	collector *measure.Collector
	log       *EventLog
	syncLat   *measure.LatencyTracker
	obs       *obs.Registry

	// stateful lists every component a snapshot captures besides the
	// scheduler, streams and metrics, in build order.
	stateful []sim.Snapshotter

	started bool
}

// NewSystem builds the testbed described by cfg. Nothing runs until Start.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.VMsPerNode < 1 {
		return nil, fmt.Errorf("core: need at least 1 VM per node, got %d", cfg.VMsPerNode)
	}
	if cfg.MeasurementNode < 0 || cfg.MeasurementNode >= cfg.Nodes ||
		cfg.MeasurementVM < 0 || cfg.MeasurementVM >= cfg.VMsPerNode {
		return nil, fmt.Errorf("core: measurement VM c%d%d out of range",
			cfg.MeasurementNode+1, cfg.MeasurementVM+1)
	}
	if cfg.NumDomains() > cfg.Nodes {
		// Node i hosts domain i's grandmaster, so a domain numbered at or
		// above Nodes would have none.
		return nil, fmt.Errorf("core: %d domains on %d nodes: every domain needs a grandmaster node",
			cfg.NumDomains(), cfg.Nodes)
	}

	s := &System{
		cfg:          cfg,
		sched:        sim.NewScheduler(),
		streams:      sim.NewStreams(cfg.Seed),
		vms:          make(map[string]*hypervisor.CSVM),
		agents:       make(map[string]*measure.Agent),
		linkByName:   make(map[string]*netsim.Link),
		bridgeByName: make(map[string]*netsim.Bridge),
		log:          NewEventLog(),
		syncLat:      measure.NewLatencyTracker(),
		obs:          obs.NewRegistry(),
	}
	s.stateful = append(s.stateful, s.log, s.syncLat)
	if err := s.buildBridges(); err != nil {
		return nil, err
	}
	if err := s.buildNodes(); err != nil {
		return nil, err
	}
	if err := s.buildRelays(); err != nil {
		return nil, err
	}
	s.buildForwarding()
	s.buildWan()
	s.instrumentKernel()
	return s, nil
}

// Topology helpers. Switches carry a global index g in [0, TotalNodes);
// site = g / Nodes, local in-site index = g % Nodes.

func (s *System) siteOf(g int) int  { return g / s.cfg.Nodes }
func (s *System) localOf(g int) int { return g % s.cfg.Nodes }

// Metrics exposes the system's private metrics registry. Each System owns
// its own registry so the parallel experiment runner never mixes metrics of
// concurrently running simulations. Snapshots are pure reads: the
// instrumentation draws no randomness and schedules nothing, so golden
// digests are unaffected.
func (s *System) Metrics() *obs.Registry { return s.obs }

// ProcessedEvents reports the events executed so far — the
// benchmark-facing throughput counter.
func (s *System) ProcessedEvents() uint64 { return s.sched.Processed() }

// instrumentKernel registers gauge funcs over the kernel-level counters the
// components already maintain: scheduler diagnostics, bridge and link
// traffic and the frame-pool hit rate. Sampling happens only at Snapshot,
// so the hot paths pay nothing.
func (s *System) instrumentKernel() {
	reg := s.obs
	reg.GaugeFunc("sim_events_processed", func() float64 { return float64(s.sched.Diag().Processed) })
	reg.GaugeFunc("sim_events_cancelled", func() float64 { return float64(s.sched.Diag().Cancelled) })
	reg.GaugeFunc("sim_past_clamps", func() float64 { return float64(s.sched.Diag().PastClamps) })
	reg.GaugeFunc("sim_events_pending", func() float64 { return float64(s.sched.Diag().Pending) })
	reg.GaugeFunc("netsim_frames_forwarded", func() float64 {
		var n uint64
		for _, b := range s.bridges {
			n += b.Forwarded()
		}
		return float64(n)
	})
	reg.GaugeFunc("netsim_frames_dropped", func() float64 {
		var n uint64
		for _, b := range s.bridges {
			n += b.Dropped()
		}
		return float64(n)
	})
	reg.GaugeFunc("netsim_frames_sent", func() float64 {
		var n uint64
		for _, l := range s.links {
			n += l.Sent()
		}
		return float64(n)
	})
	reg.GaugeFunc("netsim_frames_lost", func() float64 {
		var n uint64
		for _, l := range s.links {
			n += l.Lost()
		}
		return float64(n)
	})
	reg.GaugeFunc("netsim_frames_fault_dropped", func() float64 {
		var n uint64
		for _, l := range s.links {
			n += l.FaultDropped()
		}
		for _, b := range s.bridges {
			n += b.FaultDropped()
		}
		return float64(n)
	})
	reg.GaugeFunc("netsim_pool_hit_rate", func() float64 {
		gets, news, _ := netsim.PoolOf(s.sched).Stats()
		if gets == 0 {
			return 0
		}
		return float64(gets-news) / float64(gets)
	})
}

// meshPort returns the port index on a bridge (in-site index i) that faces
// in-site bridge j.
func (s *System) meshPort(i, j int) int { return MeshPort(s.cfg.Nodes, i, j) }

// MeshPort returns the port on bridge i of a full mesh of nodes bridges
// that faces bridge j: the mesh takes ports 0..nodes-2 in index order,
// skipping i itself. It returns -1 when j is i or not in the mesh.
func MeshPort(nodes, i, j int) int {
	switch {
	case j == i || j < 0 || j >= nodes:
		return -1
	case j < i:
		return j
	}
	return j - 1
}

// vmPort returns the port index on a bridge for local VM vm.
func (s *System) vmPort(vm int) int { return s.cfg.Nodes - 1 + vm }

// Gateway uplink ports sit after the VM ports, and exist only on each
// site's node 0 when Sites > 1: the first uplink faces the previous site
// (or, on site 0, the next), middle gateways add a second one facing the
// next site.
func (s *System) uplinkBase() int { return s.cfg.Nodes - 1 + s.cfg.VMsPerNode }

func (s *System) uplinkToPrev(site int) int { return s.uplinkBase() } // site > 0

func (s *System) uplinkToNext(site int) int {
	if site == 0 {
		return s.uplinkBase()
	}
	return s.uplinkBase() + 1
}

// numPorts sizes global switch g's port array.
func (s *System) numPorts(g int) int {
	n := s.uplinkBase()
	if s.cfg.NumSites() > 1 && s.localOf(g) == 0 {
		site := s.siteOf(g)
		if site > 0 {
			n++ // uplink toward the previous site
		}
		if site < s.cfg.NumSites()-1 {
			n++ // uplink toward the next site
		}
	}
	return n
}

// The testbed's clock physics, calibrated to the ACRN testbed
// (arXiv 2105.03374).
const (
	// maxStaticPPB bounds the static oscillator error, drawn in ±this:
	// r_max = 5 ppm (802.1AS, paper §III-A3).
	maxStaticPPB        float64 = 5000
	wanderPPBPerSqrtSec float64 = 1
	timestampJitterNS   float64 = 8
	tscReadNoiseNS      float64 = 30
	bootOffsetMaxNS     float64 = 1e6 // initial PHC disagreement: up to 1 ms
)

func (s *System) newPHC(name string, staticPPB, bootOffset float64) *clock.PHC {
	osc := clock.NewOscillator(clock.OscillatorConfig{
		StaticPPB:           staticPPB,
		WanderPPBPerSqrtSec: wanderPPBPerSqrtSec,
	}, s.streams.Stream("osc/"+name), s.sched.Now())
	return clock.NewPHC(s.sched, osc, s.streams.Stream("ts/"+name), clock.PHCConfig{
		TimestampJitterNS: timestampJitterNS,
		InitialOffsetNS:   bootOffset,
	})
}

// interSitePropagation is the one-way latency of the gateway chain links
// (a metro/long-haul span, so orders of magnitude above the in-site
// linkPropagation).
const interSitePropagation = 50 * time.Microsecond

// Bridge residence time per traffic class. Best-effort traffic (and the
// Sync path data used for E) sees a heavier residence tail than the
// prioritised classes — this is what separates E ≈ 5 µs from γ ≈ 1 µs, as
// in the paper.
var (
	residencePTP = netsim.ResidenceModel{
		Base: 1200 * time.Nanosecond, JitterNS: 120,
		TailProb: 5e-4, TailMin: 500 * time.Nanosecond, TailMax: 2 * time.Microsecond,
	}
	residenceMeas = netsim.ResidenceModel{
		Base: 1000 * time.Nanosecond, JitterNS: 100,
		TailProb: 2e-4, TailMin: 300 * time.Nanosecond, TailMax: time.Microsecond,
	}
	residenceBE = netsim.ResidenceModel{
		Base: 1500 * time.Nanosecond, JitterNS: 200,
		TailProb: 1.5e-3, TailMin: time.Microsecond, TailMax: 4 * time.Microsecond,
	}
)

func (s *System) buildBridges() error {
	residence := map[int]netsim.ResidenceModel{
		netsim.PriorityBestEffort: residenceBE,
		netsim.PriorityPTP:        residencePTP,
		netsim.PriorityMeasure:    residenceMeas,
	}
	total := s.cfg.TotalNodes()
	for g := 0; g < total; g++ {
		name := "sw" + itoa(g+1)
		static := clock.UniformPPB(s.streams.Stream("static/"+name), maxStaticPPB)
		br := netsim.NewBridge(name, s.sched, s.streams.Stream("br/"+name),
			s.newPHC(name, static, 0), netsim.BridgeConfig{Ports: s.numPorts(g), Residence: residence})
		s.bridges = append(s.bridges, br)
		s.bridgeByName[name] = br
		s.stateful = append(s.stateful, br)
	}
	// Full mesh between each site's integrated switches.
	for site := 0; site < s.cfg.NumSites(); site++ {
		base := site * s.cfg.Nodes
		for i := 0; i < s.cfg.Nodes; i++ {
			for j := i + 1; j < s.cfg.Nodes; j++ {
				gi, gj := base+i, base+j
				linkName := fmt.Sprintf("sw%d-sw%d", gi+1, gj+1)
				link, err := netsim.Connect(s.sched, s.streams.Stream("link/"+linkName),
					s.linkConfig(linkName),
					s.bridges[gi].Port(s.meshPort(i, j)), s.bridges[gj].Port(s.meshPort(j, i)))
				if err != nil {
					return err
				}
				s.links = append(s.links, link)
				s.linkByName[linkName] = link
				s.stateful = append(s.stateful, link)
			}
		}
	}
	// Gateway chain: node 0 of consecutive sites, at metro latency.
	for site := 1; site < s.cfg.NumSites(); site++ {
		ga, gb := (site-1)*s.cfg.Nodes, site*s.cfg.Nodes
		linkName := fmt.Sprintf("sw%d-sw%d", ga+1, gb+1)
		cfg := s.linkConfig(linkName)
		cfg.Propagation = interSitePropagation
		link, err := netsim.Connect(s.sched, s.streams.Stream("link/"+linkName), cfg,
			s.bridges[ga].Port(s.uplinkToNext(site-1)), s.bridges[gb].Port(s.uplinkToPrev(site)))
		if err != nil {
			return err
		}
		s.links = append(s.links, link)
		s.linkByName[linkName] = link
		s.stateful = append(s.stateful, link)
	}
	return nil
}

// In-site link delay: propagation plus per-frame jitter.
const (
	linkPropagation         = 500 * time.Nanosecond
	linkJitterNS    float64 = 20
)

// linkConfig builds the shared link parameters plus a dedicated per-link
// loss stream. The loss stream is private to the drop decision (see the
// LinkConfig.LossRNG determinism contract), so installing zero-rate chaos
// loss models leaves the jitter stream — and the golden digests — intact.
func (s *System) linkConfig(name string) netsim.LinkConfig {
	return netsim.LinkConfig{
		Propagation: linkPropagation,
		JitterNS:    linkJitterNS,
		LossProb:    s.cfg.LinkLossProb,
		LossRNG:     s.streams.Stream("loss/" + name),
	}
}

const (
	// phc2sysInterval is the CLOCK_SYNCTIME parameter update period.
	phc2sysInterval = 31250 * time.Microsecond
	// monitorPeriod is the hypervisor monitor task period.
	monitorPeriod = 125 * time.Millisecond

	// Transient software fault probabilities (per Sync), calibrated to the
	// paper's 24 h totals: 2992 tx-timestamp timeouts and 347 deadline
	// misses over 4 domains at 8 Hz.
	txTimestampTimeoutProb float64 = 1.1e-3
	deadlineMissProb       float64 = 1.25e-4
)

func (s *System) buildNodes() error {
	total := s.cfg.TotalNodes()
	for g := 0; g < total; g++ {
		nodeName := NodeName(g)
		tscOsc := clock.NewOscillator(clock.OscillatorConfig{
			StaticPPB:           clock.UniformPPB(s.streams.Stream("tsc/"+nodeName), maxStaticPPB),
			WanderPPBPerSqrtSec: wanderPPBPerSqrtSec,
		}, s.streams.Stream("tscosc/"+nodeName), s.sched.Now())
		tsc := clock.NewTSC(s.sched, tscOsc, s.streams.Stream("tscrd/"+nodeName), tscReadNoiseNS)
		node := hypervisor.NewNode(nodeName, s.sched, tsc, s.cfg.VMsPerNode,
			hypervisor.MonitorConfig{
				Period:          monitorPeriod,
				StaleAfter:      4 * phc2sysInterval,
				VoteThresholdNS: s.cfg.VoteThresholdNS,
			},
			func(e hypervisor.Event) {
				s.log.add(Event{At: s.sched.Now(), Node: e.Node, VM: e.VM, Kind: e.Kind, Detail: e.Detail})
			})
		node.Instrument(s.obs)
		s.nodes = append(s.nodes, node)
		s.stateful = append(s.stateful, node)

		// gPTP domains are site-local: every site is a full copy of the
		// paper's multi-domain aggregation fabric with its own grandmasters,
		// and PTP frames never cross the gateway chain.
		domains := make([]int, s.cfg.NumDomains())
		for d := range domains {
			domains[d] = d
		}
		for v := 0; v < s.cfg.VMsPerNode; v++ {
			vmName := VMName(g, v)
			static := clock.UniformPPB(s.streams.Stream("static/"+vmName), maxStaticPPB)
			boot := s.streams.Stream("boot/"+vmName).Float64() * bootOffsetMaxNS
			nic := netsim.NewNIC(vmName, s.sched, s.newPHC(vmName, static, boot))
			link, err := netsim.Connect(s.sched, s.streams.Stream("link/"+vmName),
				s.linkConfig(vmName),
				nic.Port(), s.bridges[g].Port(s.vmPort(v)))
			if err != nil {
				return err
			}
			s.links = append(s.links, link)
			s.linkByName[vmName] = link
			s.stateful = append(s.stateful, link)
			gmDomain := -1
			if v == 0 && s.localOf(g) < s.cfg.NumDomains() {
				gmDomain = s.localOf(g)
			}
			nodeNameCopy, vmNameCopy := nodeName, vmName
			stack, err := ptp4l.New(nic, s.sched, s.streams.Stream("stack/"+vmName), ptp4l.Config{
				Name:                   vmName,
				Domains:                domains,
				GMDomain:               gmDomain,
				InitialDomain:          0,
				F:                      s.cfg.F,
				SyncInterval:           s.cfg.SyncInterval,
				StartupThresholdNS:     s.cfg.StartupThresholdNS,
				ValidityThresholdNS:    s.cfg.ValidityThresholdNS,
				FlagPolicy:             s.cfg.FlagPolicy,
				HoldoverWindow:         s.cfg.HoldoverWindow,
				ReacquireThresholdNS:   s.cfg.ReacquireThresholdNS,
				ReacquireStableCount:   s.cfg.ReacquireStableCount,
				HoldoverMaxSlewPPB:     s.cfg.HoldoverMaxSlewPPB,
				TxTimestampTimeoutProb: txTimestampTimeoutProb,
				DeadlineMissProb:       deadlineMissProb,
				SkipStartup:            s.cfg.BaselineClientsOnly,
				DisableDiscipline:      s.cfg.BaselineClientsOnly && gmDomain >= 0,
			}, func(e ptp4l.Event) {
				s.log.add(Event{At: s.sched.Now(), Node: nodeNameCopy, VM: vmNameCopy, Kind: e.Kind, Detail: e.Detail})
			})
			if err != nil {
				return err
			}
			stack.Instrument(s.obs)
			// Register the per-domain tracker paths at build time: the
			// observer runs once per received Sync, so it indexes a dense
			// table instead of formatting and hashing a key. A Sync of a
			// domain the system does not run is no path of its bound.
			syncPaths := make([]int, s.cfg.NumDomains())
			for d := range syncPaths {
				syncPaths[d] = s.syncLat.Path(fmt.Sprintf("dom%d->%s", d+1, vmNameCopy))
			}
			stack.SetSyncObserver(func(domain int, latency time.Duration) {
				if domain >= 0 && domain < len(syncPaths) {
					s.syncLat.ObservePath(syncPaths[domain], latency)
				}
			})
			p2s := phc2sys.New(s.sched, nic.PHC(), tsc, node.STSHMEM(),
				s.streams.Stream("phc2sys/"+vmName),
				phc2sys.Config{
					Interval: phc2sysInterval,
					Slot:     v,
					// vCPU preemption between the non-atomic TSC/PHC reads:
					// frequent short slices plus rare long deschedules. This
					// is the calibrated source of the µs-scale precision
					// spikes of Fig. 4a (the paper's "feedback control of
					// software clocks" instability).
					PreemptProb:     0.015,
					PreemptMin:      100 * time.Nanosecond,
					PreemptMax:      1500 * time.Nanosecond,
					LongPreemptProb: 1.2e-4,
					LongPreemptMin:  2500 * time.Nanosecond,
					LongPreemptMax:  9500 * time.Nanosecond,
				})
			vm := &hypervisor.CSVM{
				Name:    vmName,
				Slot:    v,
				Kernel:  s.cfg.KernelFor(vmName),
				Stack:   stack,
				Phc2sys: p2s,
			}
			if err := node.AddVM(vm); err != nil {
				return err
			}
			s.vms[vmName] = vm
			s.installMeasurement(node, vm, g, v)
		}
	}
	return nil
}

// installMeasurement attaches the probe agent or the collector to the VM.
// The collector lives on site 0; every other VM in the fabric answers its
// probes, so with Sites > 1 the measurement VLAN is the cross-site traffic
// source.
func (s *System) installMeasurement(node *hypervisor.Node, vm *hypervisor.CSVM, nodeIdx, vmIdx int) {
	if nodeIdx == s.cfg.MeasurementNode && vmIdx == s.cfg.MeasurementVM {
		excluded := VMName(s.cfg.MeasurementNode, 0) // c_m1, asymmetric path
		s.collector = measure.NewCollector(vm.Name, s.sched, vm.Stack.NIC(), measure.CollectorConfig{
			Exclude: []string{excluded},
		})
		vm.Stack.SetAuxHandler(s.collector.Handle)
		s.stateful = append(s.stateful, s.collector)
		return
	}
	agent := measure.NewAgent(vm.Name, s.sched, vm.Stack.NIC(), node.SyncTimeNow)
	vm.Stack.SetAuxHandler(agent.Handle)
	s.agents[vm.Name] = agent
	s.stateful = append(s.stateful, agent)
}

func (s *System) buildRelays() error {
	total := s.cfg.TotalNodes()
	for g := 0; g < total; g++ {
		local := s.localOf(g)
		domainPorts := make(map[int]gptp.DomainPorts, s.cfg.NumDomains())
		for d := 0; d < s.cfg.NumDomains(); d++ {
			if local == d {
				// The domain's grandmaster is local: relay from the GM's
				// VM port to the in-site mesh and the redundant VM. Gateway
				// uplink ports are never domain ports — PTP stays in-site.
				masters := make([]int, 0, s.cfg.Nodes-1+s.cfg.VMsPerNode-1)
				for k := 0; k < s.cfg.Nodes-1; k++ {
					masters = append(masters, k)
				}
				for v := 1; v < s.cfg.VMsPerNode; v++ {
					masters = append(masters, s.vmPort(v))
				}
				domainPorts[d] = gptp.DomainPorts{SlavePort: s.vmPort(0), MasterPorts: masters}
				continue
			}
			masters := make([]int, 0, s.cfg.VMsPerNode)
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				masters = append(masters, s.vmPort(v))
			}
			domainPorts[d] = gptp.DomainPorts{SlavePort: s.meshPort(local, d), MasterPorts: masters}
		}
		relay, err := gptp.NewRelay(s.bridges[g], s.sched, s.streams.Stream("relay/"+itoa(g+1)),
			gptp.RelayConfig{Domains: domainPorts, DefaultLinkDelayNS: float64(linkPropagation)})
		if err != nil {
			return err
		}
		s.relays = append(s.relays, relay)
		s.stateful = append(s.stateful, relay)
	}
	return nil
}

// buildForwarding installs static unicast routes for every VM NIC and the
// measurement VLAN's multicast tree rooted at the measurement node (site 0).
// Cross-site traffic funnels through each site's gateway and along the
// chain; the static tree stays loop-free because only gateways forward
// between sites and non-root in-site switches flood to VM ports only.
func (s *System) buildForwarding() {
	total := s.cfg.TotalNodes()
	lastSite := s.cfg.NumSites() - 1
	for g := 0; g < total; g++ {
		site, local := s.siteOf(g), s.localOf(g)
		br := s.bridges[g]
		for n := 0; n < total; n++ {
			nSite, nLocal := s.siteOf(n), s.localOf(n)
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				addr := netsim.Address("nic/" + VMName(n, v))
				switch {
				case n == g:
					br.AddRoute(addr, s.vmPort(v))
				case nSite == site:
					br.AddRoute(addr, s.meshPort(local, nLocal))
				case local != 0:
					// Remote site, non-gateway switch: toward the gateway.
					br.AddRoute(addr, s.meshPort(local, 0))
				case nSite < site:
					br.AddRoute(addr, s.uplinkToPrev(site))
				default:
					br.AddRoute(addr, s.uplinkToNext(site))
				}
			}
		}
		isRoot := g == s.cfg.MeasurementNode
		switch {
		case isRoot:
			// Root switch: flood to every mesh port and both local VMs.
			for k := 0; k < s.cfg.Nodes-1; k++ {
				br.AddGroupMember(measure.MulticastAddr, k)
			}
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				br.AddGroupMember(measure.MulticastAddr, s.vmPort(v))
			}
			if local == 0 && lastSite > 0 {
				br.AddGroupMember(measure.MulticastAddr, s.uplinkToNext(site))
			}
		case local == 0 && lastSite > 0:
			// Gateways extend the VLAN along the chain and into their site.
			if site > 0 {
				for k := 0; k < s.cfg.Nodes-1; k++ {
					br.AddGroupMember(measure.MulticastAddr, k)
				}
			}
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				br.AddGroupMember(measure.MulticastAddr, s.vmPort(v))
			}
			if site < lastSite {
				br.AddGroupMember(measure.MulticastAddr, s.uplinkToNext(site))
			}
		default:
			// Leaf switches: local VM ports only (loop-free static VLAN).
			for v := 0; v < s.cfg.VMsPerNode; v++ {
				br.AddGroupMember(measure.MulticastAddr, s.vmPort(v))
			}
		}
	}
}

// Start boots relays, nodes and the measurement collector.
func (s *System) Start() error {
	if s.started {
		return fmt.Errorf("core: system already started")
	}
	for _, r := range s.relays {
		if err := r.Start(); err != nil {
			return err
		}
	}
	for _, n := range s.nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	if err := s.collector.Start(); err != nil {
		return err
	}
	// WAN tier: the drift process is armed first so coincident-instant
	// ticks apply the delay walk before the coordinator measures across it.
	if s.wanDrift != nil {
		if err := s.wanDrift.Start(s.sched); err != nil {
			return err
		}
	}
	if s.wanCoord != nil {
		if err := s.wanCoord.Start(s.sched); err != nil {
			return err
		}
	}
	s.started = true
	return nil
}

// Stop shuts down every periodic activity: relays, monitors, VM stacks,
// phc2sys services and the measurement collector. The scheduler can still
// drain in-flight events afterwards; accumulated results stay readable.
func (s *System) Stop() {
	if !s.started {
		return
	}
	if s.wanCoord != nil {
		s.wanCoord.Stop()
	}
	if s.wanDrift != nil {
		s.wanDrift.Stop()
	}
	s.collector.Stop()
	for _, n := range s.nodes {
		n.Stop()
		for _, vm := range n.VMs() {
			if !vm.Failed() {
				vm.Stack.Fail()
				vm.Phc2sys.Stop()
			}
		}
	}
	for _, r := range s.relays {
		r.Stop()
	}
	// Surface scheduler diagnostics: past-time clamps mean some component
	// asked for an instant that had already elapsed (usually a drift-induced
	// deadline miss) and silently ran late instead.
	if clamps := s.sched.PastClamps(); clamps > 0 {
		s.LogEvent(Event{At: s.Now(), Kind: "sched_past_clamps",
			Detail: fmt.Sprintf("%d events clamped to now", clamps)})
	}
	s.started = false
}

// RunFor advances the simulation by d.
func (s *System) RunFor(d time.Duration) error { return s.sched.RunFor(d) }

// RunUntil advances the simulation to absolute instant t.
func (s *System) RunUntil(t sim.Time) error { return s.sched.RunUntil(t) }

// Now reports the simulation instant: inside a callback at t it reads t,
// and between RunFor/RunUntil calls the instant the last one reached.
func (s *System) Now() sim.Time { return s.sched.Now() }

// Scheduler exposes the system's scheduler: the home for fault-injection
// drivers, chaos plans, attack timers and test hooks.
func (s *System) Scheduler() *sim.Scheduler { return s.sched }

// Close, Fabric and benchFabric are kept only for bench/, which still
// calls them: a System holds no goroutine or other resource to release,
// and there is no sharded kernel whose statistics Fabric could report.

// Close does nothing. Kept only for bench/.
func (s *System) Close() {}

// Fabric returns nil. Kept only for bench/.
func (s *System) Fabric() *benchFabric { return nil }

// benchFabric is the type of Fabric's nil result. Kept only for bench/.
type benchFabric struct{}

// Stats returns zero counters. Kept only for bench/.
func (*benchFabric) Stats() sim.FabricStats { return sim.FabricStats{} }

// Streams exposes the seeded random stream factory.
func (s *System) Streams() *sim.Streams { return s.streams }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Link resolves a named link (chaos.Topology): "sw1-sw2" mesh links, VM
// uplinks by VM name ("c11"). Nil if unknown.
func (s *System) Link(name string) *netsim.Link { return s.linkByName[name] }

// Bridge resolves a named bridge (chaos.Topology): "sw1".."swN".
func (s *System) Bridge(name string) *netsim.Bridge { return s.bridgeByName[name] }

// Links returns every named link (chaos.Topology). The map is the
// system's own index; callers must not mutate it.
func (s *System) Links() map[string]*netsim.Link { return s.linkByName }

// Node returns node i.
func (s *System) Node(i int) *hypervisor.Node { return s.nodes[i] }

// Nodes returns all nodes.
func (s *System) Nodes() []*hypervisor.Node {
	return append([]*hypervisor.Node(nil), s.nodes...)
}

// VM looks up a clock-synchronization VM by name (e.g. "c41").
func (s *System) VM(name string) (*hypervisor.CSVM, bool) {
	vm, ok := s.vms[name]
	return vm, ok
}

// Collector returns the measurement collector.
func (s *System) Collector() *measure.Collector { return s.collector }

// EventLog returns a copy of the experiment event log, in the order the
// events happened. Later events never reach a copy already taken; record
// driver and control-callback events with LogEvent.
func (s *System) EventLog() *EventLog { return &EventLog{events: s.log.Events()} }

// LogEvent records a driver or control-callback event (an exploit, an
// installed attack, a chaos action). It is the only writer outside the
// system's own components; stamp e.At with Now().
func (s *System) LogEvent(e Event) { s.log.add(e) }

// SyncLatencies returns the tracker of observed Sync path latencies.
func (s *System) SyncLatencies() *measure.LatencyTracker { return s.syncLat }

// DriftOffset computes Γ = 2·r_max·S for the testbed's drift bound.
func (s *System) DriftOffset() time.Duration {
	return clock.DriftOffset(maxStaticPPB*1e-9, s.cfg.SyncInterval)
}

// ReadingError reports E = d_max − d_min from the Sync latencies observed
// so far (the paper extracts the same quantity from ptp4l's data).
func (s *System) ReadingError() (time.Duration, bool) {
	return s.syncLat.ReadingError()
}

// PrecisionBound instantiates Π(N, f, E, Γ) = u(N, f)(E + Γ) from the
// measured reading error.
func (s *System) PrecisionBound() (time.Duration, bool) {
	e, ok := s.ReadingError()
	if !ok {
		return 0, false
	}
	return fta.Bound(s.cfg.Nodes, s.cfg.F, e, s.DriftOffset()), true
}

// AllInFTOperation reports whether every running stack reached
// fault-tolerant operation.
func (s *System) AllInFTOperation() bool {
	for _, vm := range s.vms {
		if vm.Stack.Running() && vm.Stack.Mode() != ptp4l.ModeFTOperation {
			return false
		}
	}
	return true
}

// TruePrecision is the simulator-omniscient max pairwise CLOCK_SYNCTIME
// disagreement across nodes right now — ground truth for tests,
// unavailable on the real testbed. Multi-site fabrics report the precision
// of site 0 (each site is its own synchronization island).
func (s *System) TruePrecision() (float64, bool) {
	var vals []float64
	for i := 0; i < s.cfg.Nodes && i < len(s.nodes); i++ {
		if v, ok := s.nodes[i].SyncTimeNow(); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return 0, false
	}
	var worst float64
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			d := vals[i] - vals[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, true
}

// nodeControl adapts a node to faultinject.NodeControl.
type nodeControl struct{ node *hypervisor.Node }

// NodeControls returns fault-injection handles for every node, ready for
// faultinject.New on the system's scheduler.
func (s *System) NodeControls() []faultinject.NodeControl {
	out := make([]faultinject.NodeControl, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = nodeControl{n}
	}
	return out
}

func (c nodeControl) ControlName() string      { return c.node.Name() }
func (c nodeControl) NumVMs() int              { return len(c.node.VMs()) }
func (c nodeControl) VMFailed(i int) bool      { return c.node.VM(i).Failed() }
func (c nodeControl) InjectFail(i int) error   { return c.node.FailVM(i) }
func (c nodeControl) InjectReboot(i int) error { return c.node.RebootVM(i) }
