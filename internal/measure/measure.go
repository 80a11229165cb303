// Package measure implements the paper's clock-synchronization precision
// measurement methodology (§III-A2): a dedicated measurement VM multicasts
// a probe once per second on a measurement VLAN; every other
// clock-synchronization VM timestamps the probe's reception with its node's
// CLOCK_SYNCTIME and returns the timestamp. The measured precision in
// interval s is
//
//	Π*_s = max over receiver pairs |tn_c(rx_ps) − tn_c'(rx_ps)|   (eq. 3.1)
//
// and the measurement error γ is derived from the spread of observed
// measurement-path latencies (eq. 3.2).
package measure

import (
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// MulticastAddr is the measurement VLAN multicast group.
const MulticastAddr netsim.Address = "mc/measure"

// Probe is the once-per-second multicast measurement packet.
type Probe struct {
	Seq    uint64
	Origin netsim.Address
}

// Reply carries one receiver's CLOCK_SYNCTIME reception timestamp back to
// the measurement VM. PathLatency is the probe's observed one-way latency
// (the simulator's stand-in for the per-path latency data the paper
// extracts from ptp4l).
type Reply struct {
	Seq         uint64
	VM          string
	SyncTimeNS  float64
	Valid       bool
	PathLatency time.Duration
}

// ClonePayload implements netsim.PayloadCloner: a Reply is recycled once
// the collector has copied it, so a warm-start snapshot must hold its own
// copy of any still in flight.
func (r *Reply) ClonePayload() any {
	c := *r
	return &c
}

// replyPool is one scheduler's Reply free list: agents take from it and
// the collector puts back on it.
type replyPool = sim.FreeList[Reply]

// Agent answers measurement probes on one clock-synchronization VM. It is
// installed as the ptp4l stack's auxiliary frame handler.
type Agent struct {
	name     string
	addr     netsim.Address
	sched    *sim.Scheduler
	frames   *netsim.FramePool
	free     *replyPool
	nic      *netsim.NIC
	syncTime func() (float64, bool)
	agentState
}

// agentState is the agent's scalar state, copied whole by Snapshot.
type agentState struct {
	replies uint64
}

// NewAgent creates an agent; syncTime reads the node's CLOCK_SYNCTIME.
func NewAgent(name string, sched *sim.Scheduler, nic *netsim.NIC, syncTime func() (float64, bool)) *Agent {
	return &Agent{name: name, addr: netsim.Address("nic/" + name), sched: sched,
		frames: netsim.PoolOf(sched), free: sim.Local[replyPool](sched), nic: nic, syncTime: syncTime}
}

// Replies reports how many probes the agent answered.
func (a *Agent) Replies() uint64 { return a.replies }

// Handle processes a received frame; it consumes measurement probes.
func (a *Agent) Handle(f *netsim.Frame, _ float64) {
	probe, ok := f.Payload.(*Probe)
	if !ok {
		return
	}
	v, valid := a.syncTime()
	reply := a.free.Get()
	*reply = Reply{
		Seq:         probe.Seq,
		VM:          a.name,
		SyncTimeNS:  v,
		Valid:       valid,
		PathLatency: f.PathLatency(a.sched.Now()),
	}
	out := a.frames.Get()
	out.Src = a.addr
	out.Dst = probe.Origin
	out.Priority = netsim.PriorityMeasure
	out.Payload = reply
	if _, err := a.nic.Send(out); err == nil {
		a.replies++
	}
}
