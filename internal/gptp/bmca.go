package gptp

import (
	"errors"
	"fmt"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// The paper's testbed disables the best master clock algorithm entirely
// ("external port configuration enabled, meaning that there is no BMCA
// picking GM clocks") because spatially separated, statically assigned
// grandmasters are what the FTA aggregates. A complete 802.1AS
// implementation nevertheless ships the BMCA; this file provides it, and
// the ablation benchmarks contrast BMCA re-election gaps with the FTA's
// continuous masking.

// PortRole is a gPTP port state as computed by the BMCA.
type PortRole int

const (
	// RoleDisabled: the port does not participate.
	RoleDisabled PortRole = iota + 1
	// RoleMaster: the port transmits time (Announce + Sync).
	RoleMaster
	// RoleSlave: the port receives time from the current grandmaster.
	RoleSlave
	// RolePassive: the port neither sends nor receives time (loop
	// prevention toward a better master).
	RolePassive
)

// String implements fmt.Stringer.
func (r PortRole) String() string {
	switch r {
	case RoleDisabled:
		return "disabled"
	case RoleMaster:
		return "master"
	case RoleSlave:
		return "slave"
	case RolePassive:
		return "passive"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// SystemIdentity is the clock-quality tuple a time-aware system advertises
// (IEEE 1588 defaultDS subset, ordered per the dataset comparison).
type SystemIdentity struct {
	Priority1  uint8
	ClockClass uint8
	Accuracy   uint8
	Variance   uint16
	Priority2  uint8
	ClockID    string
}

// PriorityVector is the comparable BMCA tuple.
type PriorityVector struct {
	GM           SystemIdentity
	StepsRemoved int
	SourceID     string // transmitting port identity (tiebreak)
}

// Compare orders two priority vectors: negative if v is better than o.
func (v PriorityVector) Compare(o PriorityVector) int {
	if c := compareU8(v.GM.Priority1, o.GM.Priority1); c != 0 {
		return c
	}
	if c := compareU8(v.GM.ClockClass, o.GM.ClockClass); c != 0 {
		return c
	}
	if c := compareU8(v.GM.Accuracy, o.GM.Accuracy); c != 0 {
		return c
	}
	if v.GM.Variance != o.GM.Variance {
		if v.GM.Variance < o.GM.Variance {
			return -1
		}
		return 1
	}
	if c := compareU8(v.GM.Priority2, o.GM.Priority2); c != 0 {
		return c
	}
	if v.GM.ClockID != o.GM.ClockID {
		if v.GM.ClockID < o.GM.ClockID {
			return -1
		}
		return 1
	}
	if v.StepsRemoved != o.StepsRemoved {
		if v.StepsRemoved < o.StepsRemoved {
			return -1
		}
		return 1
	}
	if v.SourceID != o.SourceID {
		if v.SourceID < o.SourceID {
			return -1
		}
		return 1
	}
	return 0
}

func compareU8(a, b uint8) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Announce is the BMCA's advertisement message. Path is the IEEE 802.1AS
// path trace (clause 10.5.3.2.8): the clock identities the announce has
// traversed. A system discards announces whose path contains itself —
// without this, redundant meshes reflect a dead grandmaster's vectors
// between bridges forever (count-to-infinity).
type Announce struct {
	Domain       int
	GM           SystemIdentity
	StepsRemoved int
	SourceID     string
	Seq          uint16
	Path         []string
}

// BMCAConfig parameterises a per-domain BMCA engine.
type BMCAConfig struct {
	Domain int
	Self   SystemIdentity
	// AnnounceInterval between Announce transmissions. Default 1 s.
	AnnounceInterval time.Duration
	// ReceiptTimeoutCount: a port's best master ages out after this many
	// missed announce intervals. Default 3 (802.1AS).
	ReceiptTimeoutCount int
}

func (c BMCAConfig) withDefaults() BMCAConfig {
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = time.Second
	}
	if c.ReceiptTimeoutCount <= 0 {
		c.ReceiptTimeoutCount = 3
	}
	return c
}

// RoleChange notifies the owner that the BMCA recomputed port roles.
type RoleChange struct {
	Domain    int
	Roles     []PortRole
	SlavePort int // -1 when this system is the grandmaster
	IsGM      bool
	GM        SystemIdentity
}

// BMCA runs the best master clock algorithm for one domain on one
// time-aware system with N ports.
type BMCA struct {
	cfg   BMCAConfig
	sched *sim.Scheduler
	tx    []TxFunc
	onChg func(RoleChange)

	ticker *sim.Ticker
	seq    uint16

	best     []*PriorityVector // best announce per port
	bestPath [][]string        // path trace of each port's best announce
	bestAt   []sim.Time
	roles    []PortRole
	slave    int
	isGM     bool
	gmVector PriorityVector
}

// NewBMCA creates an engine with one TxFunc per port.
func NewBMCA(sched *sim.Scheduler, tx []TxFunc, cfg BMCAConfig, onChange func(RoleChange)) (*BMCA, error) {
	if len(tx) == 0 {
		return nil, errors.New("gptp: BMCA needs at least one port")
	}
	cfg = cfg.withDefaults()
	b := &BMCA{
		cfg:      cfg,
		sched:    sched,
		tx:       append([]TxFunc(nil), tx...),
		onChg:    onChange,
		best:     make([]*PriorityVector, len(tx)),
		bestPath: make([][]string, len(tx)),
		bestAt:   make([]sim.Time, len(tx)),
		roles:    make([]PortRole, len(tx)),
		slave:    -1,
		isGM:     true,
	}
	b.gmVector = b.ownVector()
	for i := range b.roles {
		b.roles[i] = RoleMaster
	}
	return b, nil
}

func (b *BMCA) ownVector() PriorityVector {
	return PriorityVector{GM: b.cfg.Self, StepsRemoved: 0, SourceID: b.cfg.Self.ClockID}
}

// Start begins periodic Announce emission and role recomputation. The
// initial state (grandmaster until a better clock is heard) is reported
// through the role-change callback so owners can arm their Master role.
func (b *BMCA) Start() error {
	if b.ticker != nil {
		return errors.New("gptp: BMCA already started")
	}
	t, err := b.sched.Every(b.sched.Now(), b.cfg.AnnounceInterval, b.tick)
	if err != nil {
		return err
	}
	b.ticker = t
	if b.onChg != nil {
		b.onChg(RoleChange{
			Domain:    b.cfg.Domain,
			Roles:     append([]PortRole(nil), b.roles...),
			SlavePort: b.slave,
			IsGM:      b.isGM,
			GM:        b.gmVector.GM,
		})
	}
	return nil
}

// Stop halts the engine (fail-silent system).
func (b *BMCA) Stop() {
	if b.ticker != nil {
		b.ticker.Stop()
		b.ticker = nil
	}
}

// Roles snapshots the current port roles.
func (b *BMCA) Roles() []PortRole { return append([]PortRole(nil), b.roles...) }

// IsGM reports whether this system currently believes it is grandmaster.
func (b *BMCA) IsGM() bool { return b.isGM }

// SlavePort reports the current slave port, or -1 when grandmaster.
func (b *BMCA) SlavePort() int { return b.slave }

// GM reports the identity of the elected grandmaster.
func (b *BMCA) GM() SystemIdentity { return b.gmVector.GM }

// HandleAnnounce processes an Announce received on a port.
func (b *BMCA) HandleAnnounce(port int, a *Announce) {
	if a.Domain != b.cfg.Domain || port < 0 || port >= len(b.best) {
		return
	}
	if a.GM.ClockID == b.cfg.Self.ClockID {
		return // our own advertisement looped back
	}
	for _, hop := range a.Path {
		if hop == b.cfg.Self.ClockID {
			return // path trace: the announce already traversed us
		}
	}
	v := &PriorityVector{GM: a.GM, StepsRemoved: a.StepsRemoved, SourceID: a.SourceID}
	b.best[port] = v
	b.bestPath[port] = append([]string(nil), a.Path...)
	b.bestAt[port] = b.sched.Now()
	b.recompute()
}

// tick ages out stale port masters, recomputes roles, and transmits
// Announce on master ports.
func (b *BMCA) tick() {
	timeout := time.Duration(b.cfg.ReceiptTimeoutCount) * b.cfg.AnnounceInterval
	now := b.sched.Now()
	for i, v := range b.best {
		if v != nil && now.Sub(b.bestAt[i]) > timeout {
			b.best[i] = nil
			b.bestPath[i] = nil
		}
	}
	b.recompute()
	b.seq++
	// Path trace: the path of the vector we advertise, extended by us.
	path := []string{b.cfg.Self.ClockID}
	if !b.isGM && b.slave >= 0 {
		path = append(append([]string(nil), b.bestPath[b.slave]...), b.cfg.Self.ClockID)
	}
	for i, role := range b.roles {
		if role != RoleMaster {
			continue
		}
		a := &Announce{
			Domain:       b.cfg.Domain,
			GM:           b.gmVector.GM,
			StepsRemoved: b.gmVector.StepsRemoved + boolInt(!b.isGM),
			SourceID:     fmt.Sprintf("%s/p%d", b.cfg.Self.ClockID, i),
			Seq:          b.seq,
			Path:         path,
		}
		b.tx[i](newFrame(netsim.PoolOf(b.sched), netsim.Address("nic/"+b.cfg.Self.ClockID), a))
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// recompute runs the dataset comparison and updates port roles.
func (b *BMCA) recompute() {
	own := b.ownVector()
	bestVec := own
	bestPort := -1
	for i, v := range b.best {
		if v == nil {
			continue
		}
		if v.Compare(bestVec) < 0 {
			bestVec = *v
			bestPort = i
		}
	}
	newIsGM := bestPort == -1
	newRoles := make([]PortRole, len(b.roles))
	for i := range newRoles {
		if i == bestPort {
			newRoles[i] = RoleSlave
			continue
		}
		// Master-path comparison: the port stays master only if what we
		// would advertise there beats what the neighbor advertises;
		// otherwise it goes passive to prevent a timing loop.
		myAdvert := PriorityVector{
			GM:           bestVec.GM,
			StepsRemoved: bestVec.StepsRemoved + boolInt(!newIsGM),
			SourceID:     fmt.Sprintf("%s/p%d", b.cfg.Self.ClockID, i),
		}
		if b.best[i] != nil && b.best[i].Compare(myAdvert) < 0 {
			newRoles[i] = RolePassive
			continue
		}
		newRoles[i] = RoleMaster
	}

	changed := newIsGM != b.isGM || bestPort != b.slave || bestVec.Compare(b.gmVector) != 0
	if !changed {
		for i := range newRoles {
			if newRoles[i] != b.roles[i] {
				changed = true
				break
			}
		}
	}
	b.isGM = newIsGM
	b.slave = bestPort
	b.gmVector = bestVec
	b.roles = newRoles
	if changed && b.onChg != nil {
		b.onChg(RoleChange{
			Domain:    b.cfg.Domain,
			Roles:     append([]PortRole(nil), newRoles...),
			SlavePort: bestPort,
			IsGM:      newIsGM,
			GM:        bestVec.GM,
		})
	}
}
