package gptp

import (
	"errors"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// Fault kinds reported by the master's fault callback — the transient
// software faults the paper observes in §III-C.
const (
	// FaultTxTimestampTimeout: the Sync left the wire but ptp4l timed out
	// retrieving the transmit hardware timestamp from the kernel (the igb
	// driver issue the paper reports 2992 occurrences of); no FollowUp is
	// sent and receivers skip the interval.
	FaultTxTimestampTimeout = "tx_timestamp_timeout"
	// FaultDeadlineMiss: the Sync was handed to the ETF qdisc after its
	// launch time had already passed; the kernel drops it (347 occurrences
	// in the paper's 24 h run).
	FaultDeadlineMiss = "deadline_miss"
)

// MasterConfig configures a grandmaster port for one gPTP domain.
type MasterConfig struct {
	Domain       int
	GMIdentity   string
	SyncInterval time.Duration // default 125 ms, the paper's S
	// LaunchGuard is the minimum PHC headroom when choosing the next
	// launch-time boundary. Default 2 ms.
	LaunchGuard time.Duration
	// FollowUpDelay is the mean software delay before the FollowUp is
	// transmitted (timestamp retrieval + processing). Default 500 µs.
	FollowUpDelay time.Duration

	// TxTimestampTimeoutProb is the per-Sync probability that retrieving
	// the transmit timestamp times out (FollowUp suppressed).
	TxTimestampTimeoutProb float64
	// DeadlineMissProb is the per-Sync probability that the launch time is
	// handed to the qdisc too late (Sync dropped).
	DeadlineMissProb float64

	// MaliciousOriginOffsetNS is added to every preciseOriginTimestamp a
	// compromised grandmaster distributes. The paper's attacker uses
	// −24 µs. Zero for a benign grandmaster.
	MaliciousOriginOffsetNS float64

	// OneStep selects one-step operation (IEEE 802.1AS-2020 option): the
	// origin timestamp rides in the Sync itself and no FollowUp is sent.
	// The paper's i210 testbed uses two-step (the default).
	OneStep bool
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 125 * time.Millisecond
	}
	if c.LaunchGuard <= 0 {
		c.LaunchGuard = 2 * time.Millisecond
	}
	if c.FollowUpDelay <= 0 {
		c.FollowUpDelay = 500 * time.Microsecond
	}
	return c
}

// Master emits two-step Sync/FollowUp for one domain from a grandmaster
// NIC. Sync transmissions are gated on PHC launch times aligned to
// multiples of the sync interval, implementing the paper's synchronous
// transmission of Sync messages across domains (Linux ETF qdisc + i210
// launch-time): once the grandmasters are synchronized, all domains launch
// at the same global boundaries within the synchronization precision.
type Master struct {
	nic     *netsim.NIC
	sched   *sim.Scheduler
	frames  *netsim.FramePool
	msgs    *payloads
	rng     *sim.Stream
	onFault func(kind string)
	// txFn is the prebound ETF completion callback (snapshot-safe: it
	// reaches all per-Sync state through the payload argument).
	txFn func(payload any, txTS float64)
	// fuFn is the prebound FollowUp sender; the queued FollowUp is its arg.
	fuFn func(any)
	addr netsim.Address // source address of this master's frames
	masterState
}

// masterState is the master's mutable state, copied whole by Snapshot. cfg
// is part of it because SetMaliciousOffset rewrites it at run time.
type masterState struct {
	cfg      MasterConfig
	seq      uint16
	lastSlot int64
	ticker   *sim.Ticker // revalidated by the scheduler's restore

	syncsSent, followUpsSent uint64
}

// NewMaster creates a grandmaster port on nic. onFault, if non-nil,
// receives transient-fault notifications.
func NewMaster(nic *netsim.NIC, sched *sim.Scheduler, rng *sim.Stream, cfg MasterConfig, onFault func(kind string)) *Master {
	m := &Master{nic: nic, sched: sched, frames: netsim.PoolOf(sched), msgs: payloadsOf(sched),
		rng: rng, onFault: onFault, masterState: masterState{cfg: cfg.withDefaults(), lastSlot: -1}}
	m.txFn = m.onSyncTx
	m.fuFn = func(x any) { m.sendFollowUp(x.(*FollowUp)) }
	m.addr = netsim.Address("nic/" + nic.DeviceName())
	return m
}

// Config returns the effective configuration.
func (m *Master) Config() MasterConfig { return m.cfg }

// SetMaliciousOffset changes the origin-timestamp falsification at runtime —
// used when the attacker replaces the benign ptp4l with a malicious one.
func (m *Master) SetMaliciousOffset(ns float64) { m.cfg.MaliciousOriginOffsetNS = ns }

// Counters reports Syncs and FollowUps transmitted.
func (m *Master) Counters() (syncs, followUps uint64) { return m.syncsSent, m.followUpsSent }

// Start begins Sync emission. Each tick targets the next sync-interval
// boundary on the grandmaster's PHC.
func (m *Master) Start() error {
	if m.ticker != nil {
		return errors.New("gptp: master already started")
	}
	t, err := m.sched.Every(m.sched.Now(), m.cfg.SyncInterval, m.tick)
	if err != nil {
		return err
	}
	m.ticker = t
	return nil
}

// Stop halts Sync emission (fail-silent shutdown or attacker replacement).
func (m *Master) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Running reports whether the master is emitting.
func (m *Master) Running() bool { return m.ticker != nil }

func (m *Master) tick() {
	if m.nic.Down() {
		return
	}
	interval := float64(m.cfg.SyncInterval)
	nowPHC := m.nic.PHC().Now()
	slot := int64((nowPHC + float64(m.cfg.LaunchGuard)) / interval)
	launchSlot := slot + 1
	if launchSlot <= m.lastSlot {
		return // drift caused two ticks inside one boundary; skip
	}
	m.lastSlot = launchSlot
	launch := float64(launchSlot) * interval

	m.seq++
	sync := &Sync{Domain: m.cfg.Domain, Seq: m.seq}
	if m.cfg.OneStep {
		sync.OneStep = true
		sync.RateRatio = 1
		sync.GMIdentity = m.cfg.GMIdentity
	}
	syncFrame := newFrame(m.frames, m.addr, sync)

	if m.rng != nil && m.cfg.DeadlineMissProb > 0 && m.rng.Float64() < m.cfg.DeadlineMissProb {
		// Model a late hand-off: the launch time passed to the qdisc is
		// already stale, so ETF rejects the frame.
		if err := m.nic.SendAtPHC(nowPHC-1, syncFrame, nil); errors.Is(err, netsim.ErrLaunchDeadlineMissed) {
			m.fault(FaultDeadlineMiss)
		}
		return
	}

	err := m.nic.SendAtPHC(launch, syncFrame, m.txFn)
	if errors.Is(err, netsim.ErrLaunchDeadlineMissed) {
		m.fault(FaultDeadlineMiss)
	}
}

// onSyncTx completes a Sync transmission at the ETF launch instant. The
// per-Sync state arrives through the payload (the scheduler hands each
// fork its own deep copy), so the callback itself is snapshot-safe.
func (m *Master) onSyncTx(payload any, txTS float64) {
	sync := payload.(*Sync)
	m.syncsSent++
	if m.cfg.OneStep {
		// The timestamping unit writes the origin into the departing
		// frame; delivery is scheduled after this callback, so the
		// mutation is visible to every receiver.
		sync.Origin = txTS + m.cfg.MaliciousOriginOffsetNS
		return
	}
	m.completeFollowUp(sync.Seq, txTS)
}

func (m *Master) completeFollowUp(seq uint16, txTS float64) {
	if m.rng != nil && m.cfg.TxTimestampTimeoutProb > 0 && m.rng.Float64() < m.cfg.TxTimestampTimeoutProb {
		m.fault(FaultTxTimestampTimeout)
		return
	}
	delay := m.cfg.FollowUpDelay
	if m.rng != nil {
		delay += time.Duration(m.rng.Int63n(int64(m.cfg.FollowUpDelay)))
	}
	// Until it is sent, the queued FollowUp holds the raw transmit
	// timestamp in PreciseOrigin. As a scheduler arg it is a sim.Cloner, so
	// a snapshot keeps its own copy.
	fu := m.msgs.followUps.Get()
	fu.Seq = seq
	fu.PreciseOrigin = txTS
	m.sched.AfterArg(delay, m.fuFn, fu)
}

// sendFollowUp completes and transmits a FollowUp queued by
// completeFollowUp. The falsification offset is read at send time, as an
// attacker replacing ptp4l in between would apply it.
func (m *Master) sendFollowUp(fu *FollowUp) {
	if m.nic.Down() {
		m.msgs.followUps.Put(fu)
		return
	}
	fu.Domain = m.cfg.Domain
	fu.PreciseOrigin += m.cfg.MaliciousOriginOffsetNS
	fu.RateRatio = 1
	fu.GMIdentity = m.cfg.GMIdentity
	if _, err := m.nic.Send(newFrame(m.frames, m.addr, fu)); err == nil {
		m.followUpsSent++
	}
}

func (m *Master) fault(kind string) {
	if m.onFault != nil {
		m.onFault(kind)
	}
}

// Snapshot implements sim.Snapshotter.
func (m *Master) Snapshot() any {
	st := m.masterState
	return &st
}

// Restore implements sim.Snapshotter.
func (m *Master) Restore(snap any) { m.masterState = *snap.(*masterState) }
