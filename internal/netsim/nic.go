package netsim

import (
	"errors"
	"fmt"
	"time"

	"gptpfta/internal/clock"
	"gptpfta/internal/sim"
)

// ErrLaunchDeadlineMissed is returned by SendAtPHC when the requested launch
// time already lies in the past of the NIC's PHC — the ETF queuing
// discipline drops such frames, one of the transient software faults the
// paper observes (§III-C: "invalid Sync packet transmission deadlines
// passed to the kernel").
var ErrLaunchDeadlineMissed = errors.New("netsim: ETF launch deadline missed")

// ErrNICDown is returned when transmitting on a NIC whose owning VM is
// fail-silent.
var ErrNICDown = errors.New("netsim: nic down")

// RxHandler consumes received frames together with the PHC hardware receive
// timestamp (nanoseconds on the NIC's PHC timescale).
type RxHandler func(f *Frame, rxTS float64)

// NIC is a network interface with a PHC and hardware timestamping, modelled
// on the Intel i210 (launch-time capable). Each clock-synchronization VM
// owns exactly one passthrough NIC.
type NIC struct {
	name    string
	sched   *sim.Scheduler
	frames  *FramePool
	phc     *clock.PHC
	port    Port
	handler RxHandler
	// etfFn is the prebound ETF launch runner; SendAtPHC schedules it with
	// an *etfJob arg so queued launches survive a warm-start snapshot.
	etfFn func(any)
	// etfFree recycles fired ETF jobs. Jobs still queued when a snapshot is
	// taken are deep-copied by the scheduler (etfJob is a sim.Cloner), so a
	// recycled job is never shared with a fork.
	etfFree sim.FreeList[etfJob]
	nicState
}

// nicState is the NIC's scalar state, copied whole by Snapshot.
type nicState struct {
	down             bool
	txCount, rxCount uint64
}

// NewNIC creates a NIC with the given PHC.
func NewNIC(name string, sched *sim.Scheduler, phc *clock.PHC) *NIC {
	n := &NIC{name: name, sched: sched, frames: PoolOf(sched), phc: phc}
	n.port = Port{Name: name + "/p0", Owner: n, Index: 0}
	n.etfFn = func(x any) { n.fireETF(x.(*etfJob)) }
	return n
}

// DeviceName implements Device.
func (n *NIC) DeviceName() string { return n.name }

// Port returns the NIC's single port for wiring.
func (n *NIC) Port() *Port { return &n.port }

// PHC returns the NIC's hardware clock.
func (n *NIC) PHC() *clock.PHC { return n.phc }

// SetHandler installs the receive path into the owning VM's network stack.
func (n *NIC) SetHandler(h RxHandler) { n.handler = h }

// SetDown marks the NIC (and its VM) fail-silent: all transmission and
// reception stops without any error indication to peers.
func (n *NIC) SetDown(down bool) { n.down = down }

// Down reports whether the NIC is fail-silent.
func (n *NIC) Down() bool { return n.down }

// Counters reports frames transmitted and received, for diagnostics.
func (n *NIC) Counters() (tx, rx uint64) { return n.txCount, n.rxCount }

// Receive implements Device: it timestamps the frame with the PHC and hands
// it to the VM's stack. A down NIC drops silently. A NIC is a frame's final
// destination, so pool-owned frames are recycled once the handler returns —
// handlers receive the frame synchronously and may keep its payload, but
// must not retain the *Frame itself.
func (n *NIC) Receive(_ *Port, f *Frame) {
	if n.down || n.handler == nil {
		n.frames.put(f)
		return
	}
	n.rxCount++
	n.handler(f, n.phc.Timestamp())
	n.frames.put(f)
}

// Send transmits a frame immediately and returns the hardware transmit
// timestamp.
func (n *NIC) Send(f *Frame) (txTS float64, err error) {
	if n.down {
		return 0, ErrNICDown
	}
	if !n.port.Connected() {
		return 0, fmt.Errorf("netsim: nic %s not connected", n.name)
	}
	f.SentAt = n.sched.Now()
	txTS = n.phc.Timestamp()
	n.txCount++
	n.port.link.Send(&n.port, f)
	return txTS, nil
}

// etfJob is a queued ETF launch. It rides the scheduler as an arg
// descriptor rather than a closure so the snapshot engine can deep-copy
// the frame; onTx closures must capture only snapshot-restored components
// or values never mutated after scheduling (see sim.Cloner).
type etfJob struct {
	f    *Frame
	onTx func(payload any, txTS float64)
}

// CloneForSnapshot implements sim.Cloner.
func (j *etfJob) CloneForSnapshot() any {
	c := *j
	c.f = j.f.CloneForSnapshot().(*Frame)
	return &c
}

// fireETF launches a queued ETF frame. The payload is captured before Send
// because the link may drop the frame and recycle it (zeroing the struct);
// payloads are never pooled, so the reference stays valid for onTx.
func (n *NIC) fireETF(j *etfJob) {
	f, onTx := j.f, j.onTx
	n.etfFree.Put(j)
	if n.down {
		return
	}
	payload := f.Payload
	ts, err := n.Send(f)
	if err != nil {
		return
	}
	if onTx != nil {
		onTx(payload, ts)
	}
}

// SendAtPHC enqueues a frame into the ETF launch-time queue: it is
// transmitted when the NIC's PHC reaches launchPHC. onTx, if non-nil, is
// invoked at transmission with the frame's payload and the hardware
// transmit timestamp (the launch-time gate makes it essentially equal to
// launchPHC plus timestamp jitter); onTx runs even if the link then drops
// the frame — the sender cannot observe in-flight loss. A launch time in
// the past returns ErrLaunchDeadlineMissed and the frame is dropped, as
// the ETF qdisc does.
func (n *NIC) SendAtPHC(launchPHC float64, f *Frame, onTx func(payload any, txTS float64)) error {
	if n.down {
		return ErrNICDown
	}
	nowPHC := n.phc.Now()
	if launchPHC < nowPHC {
		return ErrLaunchDeadlineMissed
	}
	wait := n.trueDelayUntilPHC(launchPHC)
	j := n.etfFree.Get()
	*j = etfJob{f: f, onTx: onTx}
	n.sched.AfterArg(wait, n.etfFn, j)
	return nil
}

// nicSnapshot captures a NIC's mutable state for warm-start forks.
type nicSnapshot struct {
	nicState
	phc any
}

// Snapshot implements sim.Snapshotter.
func (n *NIC) Snapshot() any { return &nicSnapshot{n.nicState, n.phc.Snapshot()} }

// Restore implements sim.Snapshotter.
func (n *NIC) Restore(snap any) {
	sn := snap.(*nicSnapshot)
	n.nicState = sn.nicState
	n.phc.Restore(sn.phc)
}

// trueDelayUntilPHC converts a PHC-timescale deadline into a true-time wait
// using the PHC's current rate. Clock reads are lazy and must stay monotone,
// so the conversion is analytic rather than probing future reads; frequency
// wander over the (sub-second) wait contributes sub-nanosecond error.
func (n *NIC) trueDelayUntilPHC(targetPHC float64) time.Duration {
	deltaPHC := targetPHC - n.phc.Now()
	if deltaPHC <= 0 {
		return 0
	}
	rate := 1 + n.phc.RatePPBVsTrue()*1e-9
	return time.Duration(deltaPHC / rate)
}
