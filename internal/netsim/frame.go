// Package netsim models the experiment's physical network: NICs with
// hardware timestamping and Earliest-TxTime-First (ETF) launch-time queues,
// links with propagation jitter, and integrated TSN bridges with static
// forwarding, priority-dependent residence times, and a relay hook through
// which the gPTP layer implements IEEE 802.1AS bridge behaviour.
package netsim

import (
	"time"

	"gptpfta/internal/sim"
)

// Address identifies a frame endpoint: a NIC ("nic/dev1/1") or a multicast
// group ("mc/measure"). Addressing is static — the testbed uses external
// port configuration and a dedicated measurement VLAN, so there is no
// learning or spanning-tree protocol.
type Address string

// IsMulticast reports whether the address names a multicast group.
func (a Address) IsMulticast() bool {
	return len(a) > 3 && a[:3] == "mc/"
}

// Traffic priorities, mirroring the testbed's TSN configuration: gPTP event
// messages ride the highest priority, the measurement VLAN uses an express
// queue, everything else is best effort.
const (
	PriorityBestEffort = 0
	PriorityMeasure    = 6
	PriorityPTP        = 7
)

// Frame is a network frame. Payload carries a protocol message (gPTP or
// measurement probe). SentAt records the true transmission instant of the
// original sender and survives forwarding; the measurement subsystem uses
// it to derive observed path latencies (standing in for the latency data
// the paper extracted from ptp4l).
type Frame struct {
	Src      Address
	Dst      Address
	VLAN     uint16
	Priority int
	// Bytes is the frame size for serialization-time computation in
	// shaped egress ports; zero means a protocol-typical default.
	Bytes   int
	Payload any

	SentAt sim.Time // true instant of original transmission
	Hops   int      // bridges traversed

	// pooled marks frames taken from a FramePool. Only such frames are
	// recycled at their netsim-internal death points (endpoint delivery,
	// drops); frames built with a plain &Frame{} literal are left to the
	// garbage collector, so external code needs no lifetime discipline.
	pooled bool
}

// FramePool is one scheduler's frame free list, the hottest allocation
// site after scheduler events. Every device and protocol endpoint built on
// a scheduler (a whole System) shares its pool, and only the goroutine
// running that scheduler touches it. The receiving device, or the link
// that drops a frame, releases it. A frame is fully overwritten at Get and
// its identity is never observable, so recycling cannot perturb
// determinism. Its Stats count Get and Clone calls; the hit rate is
// (gets-news)/gets.
type FramePool struct{ sim.FreeList[Frame] }

// PoolOf returns sched's frame pool.
func PoolOf(sched *sim.Scheduler) *FramePool { return sim.Local[FramePool](sched) }

// Get returns a zeroed pool-owned frame. The caller fills in the fields
// and transmits it; netsim recycles it when it is delivered to a NIC
// endpoint or dropped in flight. Callers must not retain the frame after
// handing it to Send/Transmit.
func (p *FramePool) Get() *Frame {
	f := p.FreeList.Get()
	f.pooled = true
	return f
}

// Clone returns a pool-owned shallow copy of f for fan-out across egress
// ports. Payloads are treated as immutable once transmitted and are shared
// between clones.
func (p *FramePool) Clone(f *Frame) *Frame {
	c := p.FreeList.Get()
	*c = *f
	c.pooled = true
	return c
}

// put recycles a pool-owned frame; a no-op for GC-owned frames.
func (p *FramePool) put(f *Frame) {
	if f.pooled {
		p.Put(f)
	}
}

// PayloadCloner is implemented by the payload types that are mutated after
// the frame has been scheduled (a Sync whose origin/correction is written
// at the transmit instant) or recycled once received (the gPTP FollowUp
// and pdelay messages, measurement replies). The snapshot engine
// deep-copies such payloads so a fork cannot observe what another run did
// to them; all other payloads are immutable once scheduled and are safely
// shared.
type PayloadCloner interface {
	ClonePayload() any
}

// CloneForSnapshot implements sim.Cloner: a GC-owned value copy for the
// warm-start snapshot engine. The copy is marked non-pooled so no pool ever
// receives a frame the live run did not acquire, and the payload is
// deep-copied iff it declares itself mutable or recycled via
// PayloadCloner.
func (f *Frame) CloneForSnapshot() any {
	c := *f
	c.pooled = false
	if pc, ok := c.Payload.(PayloadCloner); ok {
		c.Payload = pc.ClonePayload()
	}
	return &c
}

// PathLatency reports the frame's true end-to-end latency if delivered at
// instant now.
func (f *Frame) PathLatency(now sim.Time) time.Duration {
	return now.Sub(f.SentAt)
}

// Device is anything with ports: a NIC or a bridge.
type Device interface {
	// DeviceName identifies the device in logs and diagnostics.
	DeviceName() string
	// Receive is invoked by a link when a frame arrives at one of the
	// device's ports, at the current simulation instant.
	Receive(p *Port, f *Frame)
}

// Port is one attachment point of a device.
type Port struct {
	Name  string
	Owner Device
	Index int // index within the owner (bridge port number; 0 for NICs)
	link  *Link
}

// Link reports the attached link, or nil.
func (p *Port) Link() *Link { return p.link }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }
