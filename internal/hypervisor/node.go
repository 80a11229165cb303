// Package hypervisor models the ACRN-based node of the paper's testbed: a
// hypervisor hosting n = f+1 redundant clock-synchronization VMs, the
// STSHMEM virtual PCI device shared with co-located VMs, and the
// hypervisor-native monitor task (period 125 ms) that detects a failed
// active clock-synchronization VM and injects an interrupt into a redundant
// VM to take over maintaining CLOCK_SYNCTIME.
package hypervisor

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/obs"
	"gptpfta/internal/phc2sys"
	"gptpfta/internal/ptp4l"
	"gptpfta/internal/shmem"
	"gptpfta/internal/sim"
)

// Event kinds emitted by the node.
const (
	EventVMFailed   = "vm_failed"
	EventVMRebooted = "vm_rebooted"
	EventTakeover   = "takeover"
	EventVoteFlag   = "monitor_vote_flag"
)

// Event is a node-level occurrence for the experiment log.
type Event struct {
	Node   string
	VM     string
	Kind   string
	Detail string
}

// CSVM is one clock-synchronization VM: its extended ptp4l stack, its
// phc2sys service, and its kernel version (the OS-diversity dimension of
// the paper's cyber-resilience experiment).
type CSVM struct {
	Name    string
	Slot    int
	Kernel  string
	Stack   *ptp4l.Stack
	Phc2sys *phc2sys.Service
	failed  bool
}

// Failed reports whether the VM is currently fail-silent.
func (vm *CSVM) Failed() bool { return vm.failed }

// TargetName implements the attack package's Target interface.
func (vm *CSVM) TargetName() string { return vm.Name }

// KernelVersion implements the attack package's Target interface.
func (vm *CSVM) KernelVersion() string { return vm.Kernel }

// InstallMaliciousPTP4L implements the attack package's Target interface:
// the compromised VM's grandmaster starts distributing falsified
// preciseOriginTimestamps.
func (vm *CSVM) InstallMaliciousPTP4L(offsetNS float64) { vm.Stack.Compromise(offsetNS) }

// MonitorConfig parameterises the hypervisor monitor task.
type MonitorConfig struct {
	// Period of the monitor task. The paper uses 125 ms.
	Period time.Duration
	// StaleAfter is the STSHMEM parameter age that marks a writer
	// fail-silent. Default 4 phc2sys intervals (125 ms).
	StaleAfter time.Duration
	// VoteThresholdNS enables consistency voting when at least three valid
	// slots exist (the 2f+1 fail-consistent variant of §II-A): a slot
	// whose CLOCK_SYNCTIME deviates more than this from the median of all
	// valid slots is treated as faulty. Zero disables voting.
	VoteThresholdNS float64
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Period <= 0 {
		c.Period = 125 * time.Millisecond
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 125 * time.Millisecond
	}
	return c
}

// Node is one edge computing device: platform counter, STSHMEM, the
// monitor, and the clock-synchronization VMs.
type Node struct {
	name  string
	sched *sim.Scheduler
	tsc   *clock.TSC
	st    *shmem.STSHMEM
	vms   []*CSVM
	mcfg  MonitorConfig

	onEvent func(Event)
	// parts lists the owned components a snapshot captures: the STSHMEM
	// region, the TSC, and each VM's stack and phc2sys service.
	parts []sim.Snapshotter
	nodeState

	// failedAt records when each VM went fail-silent, so a subsequent
	// takeover can report the detection-to-failover latency.
	failedAt map[int]sim.Time

	// Observability handles (nil and inert unless Instrument was called).
	obsDetections *obs.Counter
	obsVoteFlags  *obs.Counter
	obsFailover   *obs.Histogram
}

// nodeState is the monitor's scalar state, copied whole by Snapshot.
type nodeState struct {
	monitor   *sim.Ticker
	takeovers uint64
}

// failoverBuckets spans the monitor's 125 ms period: from sub-period
// detections up to several periods when no healthy candidate exists.
var failoverBuckets = []float64{1e6, 1e7, 5e7, 1e8, 1.25e8, 2.5e8, 5e8, 1e9}

// Instrument registers the node's metrics with reg: monitor detections,
// consistency-vote flags, failover latency, and gauges over takeovers and
// healthy-VM count. Handles resolve once; nil registries stay inert.
func (n *Node) Instrument(reg *obs.Registry) {
	node := obs.L("node", n.name)
	n.obsDetections = reg.Counter("hypervisor_monitor_detections", node)
	n.obsVoteFlags = reg.Counter("hypervisor_vote_flags", node)
	n.obsFailover = reg.Histogram("hypervisor_failover_latency_ns", failoverBuckets, node)
	reg.GaugeFunc("hypervisor_takeovers", func() float64 { return float64(n.takeovers) }, node)
	reg.GaugeFunc("hypervisor_healthy_vms", func() float64 { return float64(n.HealthyVMs()) }, node)
}

// NewNode creates a node. The STSHMEM gets one slot per VM added later.
func NewNode(name string, sched *sim.Scheduler, tsc *clock.TSC, slots int, mcfg MonitorConfig, onEvent func(Event)) *Node {
	n := &Node{
		name:    name,
		sched:   sched,
		tsc:     tsc,
		st:      shmem.NewSTSHMEM(slots),
		mcfg:    mcfg.withDefaults(),
		onEvent: onEvent,
	}
	n.parts = []sim.Snapshotter{n.st, tsc}
	return n
}

// Name reports the node name (e.g. "dev1").
func (n *Node) Name() string { return n.name }

// TSC returns the node's platform counter.
func (n *Node) TSC() *clock.TSC { return n.tsc }

// STSHMEM returns the node's synchronized-time shared memory.
func (n *Node) STSHMEM() *shmem.STSHMEM { return n.st }

// VMs returns the node's clock-synchronization VMs.
func (n *Node) VMs() []*CSVM { return n.vms }

// VM returns VM i.
func (n *Node) VM(i int) *CSVM { return n.vms[i] }

// Takeovers reports how many failovers the monitor performed.
func (n *Node) Takeovers() uint64 { return n.takeovers }

// AddVM registers a clock-synchronization VM with the node.
func (n *Node) AddVM(vm *CSVM) error {
	if vm.Slot != len(n.vms) {
		return fmt.Errorf("hypervisor: VM %s slot %d out of order", vm.Name, vm.Slot)
	}
	if vm.Slot >= n.st.NumSlots() {
		return fmt.Errorf("hypervisor: VM %s slot %d exceeds STSHMEM slots", vm.Name, vm.Slot)
	}
	n.vms = append(n.vms, vm)
	n.parts = append(n.parts, vm.Stack, vm.Phc2sys)
	return nil
}

// Start boots the VMs and the monitor task.
func (n *Node) Start() error {
	for _, vm := range n.vms {
		if err := vm.Stack.Start(); err != nil {
			return fmt.Errorf("start %s stack: %w", vm.Name, err)
		}
		if err := vm.Phc2sys.Start(); err != nil {
			return fmt.Errorf("start %s phc2sys: %w", vm.Name, err)
		}
	}
	t, err := n.sched.Every(n.sched.Now().Add(n.mcfg.Period), n.mcfg.Period, n.monitorStep)
	if err != nil {
		return err
	}
	n.monitor = t
	return nil
}

// Stop halts the monitor (end of experiment).
func (n *Node) Stop() {
	if n.monitor != nil {
		n.monitor.Stop()
		n.monitor = nil
	}
}

// SyncTimeNow evaluates CLOCK_SYNCTIME from the active STSHMEM slot.
func (n *Node) SyncTimeNow() (float64, bool) {
	return n.st.SyncTimeAt(n.tsc.Now())
}

// FailVM makes VM i fail-silent: the stack and phc2sys stop without any
// cleanup, exactly like a shutdown -h now in the guest.
func (n *Node) FailVM(i int) error {
	if i < 0 || i >= len(n.vms) {
		return fmt.Errorf("hypervisor: no VM %d on %s", i, n.name)
	}
	vm := n.vms[i]
	if vm.failed {
		return fmt.Errorf("hypervisor: VM %s already failed", vm.Name)
	}
	vm.failed = true
	if n.failedAt == nil {
		n.failedAt = make(map[int]sim.Time)
	}
	n.failedAt[i] = n.sched.Now()
	vm.Stack.Fail()
	vm.Phc2sys.Stop()
	n.emit(vm.Name, EventVMFailed, "")
	return nil
}

// RebootVM restarts a failed VM.
func (n *Node) RebootVM(i int) error {
	if i < 0 || i >= len(n.vms) {
		return fmt.Errorf("hypervisor: no VM %d on %s", i, n.name)
	}
	vm := n.vms[i]
	if !vm.failed {
		return fmt.Errorf("hypervisor: VM %s not failed", vm.Name)
	}
	vm.failed = false
	delete(n.failedAt, i)
	if err := vm.Stack.Reboot(); err != nil {
		return err
	}
	vm.Phc2sys.Reset()
	if err := vm.Phc2sys.Start(); err != nil {
		return err
	}
	n.emit(vm.Name, EventVMRebooted, "")
	return nil
}

// monitorStep is the hypervisor-native monitor task: freshness detection
// of the active writer (fail-silent hypothesis, n = f+1) plus, when at
// least three valid slots exist and voting is enabled, a consistency vote
// (fail-consistent hypothesis, n = 2f+1).
func (n *Node) monitorStep() {
	active := n.st.Active()
	if n.slotHealthy(active) && !n.votedFaulty(active) {
		return
	}
	n.obsDetections.Inc()
	// Failover: promote the first healthy, non-outvoted candidate.
	for i := range n.vms {
		if i == active {
			continue
		}
		if n.slotHealthy(i) && !n.votedFaulty(i) {
			n.st.SetActive(i)
			n.takeovers++
			if t, ok := n.failedAt[active]; ok {
				n.obsFailover.Observe(float64(n.sched.Now().Sub(t)))
				delete(n.failedAt, active)
			}
			// Inject the takeover interrupt into the promoted VM.
			n.vms[i].Phc2sys.OnTakeover()
			n.emit(n.vms[i].Name, EventTakeover,
				fmt.Sprintf("replacing %s", n.vms[active].Name))
			return
		}
	}
	// No healthy candidate: keep the current slot (nothing better exists).
}

// slotHealthy reports whether a slot's parameters are valid and fresh.
func (n *Node) slotHealthy(i int) bool {
	p := n.st.Slot(i)
	if !p.Valid {
		return false
	}
	age := n.tsc.Now() - p.UpdatedTSC
	return age <= float64(n.mcfg.StaleAfter)
}

// votedFaulty runs the 2f+1 consistency vote when enabled: with at least
// three healthy slots, a slot deviating more than the threshold from the
// median CLOCK_SYNCTIME is faulty.
func (n *Node) votedFaulty(i int) bool {
	if n.mcfg.VoteThresholdNS <= 0 {
		return false
	}
	tsc := n.tsc.Now()
	times := make([]float64, 0, len(n.vms))
	var mine float64
	found := false
	for j := range n.vms {
		if !n.slotHealthy(j) {
			continue
		}
		v := n.st.Slot(j).SyncTimeAt(tsc)
		times = append(times, v)
		if j == i {
			mine = v
			found = true
		}
	}
	if !found || len(times) < 3 {
		return false
	}
	sort.Float64s(times)
	med := times[len(times)/2]
	if len(times)%2 == 0 {
		med = (times[len(times)/2-1] + times[len(times)/2]) / 2
	}
	if math.Abs(mine-med) > n.mcfg.VoteThresholdNS {
		n.obsVoteFlags.Inc()
		n.emit(n.vms[i].Name, EventVoteFlag, fmt.Sprintf("deviation %.0fns", mine-med))
		return true
	}
	return false
}

func (n *Node) emit(vm, kind, detail string) {
	if n.onEvent != nil {
		n.onEvent(Event{Node: n.name, VM: vm, Kind: kind, Detail: detail})
	}
}

// ErrNoHealthyVM is reported by health checks when every slot is stale.
var ErrNoHealthyVM = errors.New("hypervisor: no healthy clock-synchronization VM")

// HealthyVMs reports how many slots are currently healthy.
func (n *Node) HealthyVMs() int {
	count := 0
	for i := range n.vms {
		if n.slotHealthy(i) {
			count++
		}
	}
	return count
}

// nodeSnapshot captures a node for warm-start forks: the monitor state,
// the VMs' failure flags and every owned part (STSHMEM region, TSC, and
// each VM's stack and phc2sys).
type nodeSnapshot struct {
	nodeState
	failedAt map[int]sim.Time
	vmFailed []bool
	parts    []any
}

// Snapshot implements sim.Snapshotter.
func (n *Node) Snapshot() any {
	sn := &nodeSnapshot{
		nodeState: n.nodeState,
		failedAt:  maps.Clone(n.failedAt),
		vmFailed:  make([]bool, len(n.vms)),
		parts:     sim.SnapshotAll(n.parts),
	}
	for i, vm := range n.vms {
		sn.vmFailed[i] = vm.failed
	}
	return sn
}

// Restore implements sim.Snapshotter.
func (n *Node) Restore(snap any) {
	sn := snap.(*nodeSnapshot)
	n.nodeState = sn.nodeState
	n.failedAt = maps.Clone(sn.failedAt)
	for i, vm := range n.vms {
		vm.failed = sn.vmFailed[i]
	}
	sim.RestoreAll(n.parts, sn.parts)
}
