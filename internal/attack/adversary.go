package attack

import (
	"fmt"

	"gptpfta/internal/gptp"
	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// BehaviorKind selects how a compromised grandmaster falsifies its
// preciseOriginTimestamps over time.
type BehaviorKind string

const (
	// BehaviorConstant is the paper's attack: a fixed origin shift
	// (−24 µs) from the moment of compromise.
	BehaviorConstant BehaviorKind = "constant"
	// BehaviorRamp slews the falsification linearly, modelling an
	// attacker that tries to drag the quorum instead of stepping it.
	BehaviorRamp BehaviorKind = "ramp"
	// BehaviorWander adds a random walk on top of the base shift,
	// modelling a noisy covert attacker. The walk draws from a dedicated
	// per-adversary stream, so it perturbs no other random sequence.
	BehaviorWander BehaviorKind = "wander"
)

// ParseBehaviorKind validates a wire-format behavior name; the empty string
// means BehaviorConstant.
func ParseBehaviorKind(s string) (BehaviorKind, error) {
	switch BehaviorKind(s) {
	case "":
		return BehaviorConstant, nil
	case BehaviorConstant, BehaviorRamp, BehaviorWander:
		return BehaviorKind(s), nil
	default:
		return "", fmt.Errorf("attack: unknown behavior %q (want constant, ramp or wander)", s)
	}
}

// Behavior parameterises an active adversary's falsification over time.
type Behavior struct {
	Kind BehaviorKind
	// OffsetNS is the base origin-timestamp shift (the paper's constant
	// attack uses MaliciousOriginOffsetNS).
	OffsetNS float64
	// SlewNSPerSec is the ramp rate for BehaviorRamp.
	SlewNSPerSec float64
	// WanderNSPerStep is the 1-sigma random-walk increment per update for
	// BehaviorWander.
	WanderNSPerStep float64
}

// Static reports whether the behavior never changes after installation, in
// which case the campaign needs no update ticker (and no RNG stream).
func (b Behavior) Static() bool {
	switch b.Kind {
	case BehaviorRamp:
		return b.SlewNSPerSec == 0
	case BehaviorWander:
		return b.WanderNSPerStep == 0
	default:
		return true
	}
}

// Adversary evolves one compromised grandmaster's falsification, driven
// from scheduler events that the attack campaign arms.
type Adversary struct {
	b    Behavior
	rng  *sim.Stream
	walk float64
}

// NewAdversary creates an adversary; rng may be nil for static behaviors.
func NewAdversary(b Behavior, rng *sim.Stream) *Adversary {
	return &Adversary{b: b, rng: rng}
}

// Offset returns the falsification to install elapsedSec after compromise,
// advancing any internal state (the wander walk) by one step.
func (a *Adversary) Offset(elapsedSec float64) float64 {
	v := a.b.OffsetNS
	switch a.b.Kind {
	case BehaviorRamp:
		v += a.b.SlewNSPerSec * elapsedSec
	case BehaviorWander:
		if a.rng != nil && a.b.WanderNSPerStep != 0 {
			a.walk += a.b.WanderNSPerStep * a.rng.NormFloat64()
		}
		v += a.walk
	}
	return v
}

// DefaultTargetOrder is the canonical order a coordinated multi-GM campaign
// compromises grandmasters in: the paper's two Fig. 3 targets first (c41
// then c11), then the remaining grandmasters by device number.
func DefaultTargetOrder() []string {
	return []string{"c41", "c11", "c21", "c31"}
}

// CampaignTargets returns the first n names of order — the GMs an
// n-adversary coordinated campaign holds credentials on. n is clamped to
// [0, len(order)], so asking for more adversaries than grandmasters attacks
// every grandmaster.
func CampaignTargets(order []string, n int) []string {
	if n <= 0 {
		return nil
	}
	if n > len(order) {
		n = len(order)
	}
	return append([]string(nil), order[:n]...)
}

// SyncDelayAttack is an on-path adversary holding a grandmaster's Sync
// frames on the wire: it implements netsim.DelayAttack by adding a fixed
// one-way delay to Sync messages travelling in one link direction
// (canonically dir 0, the VM→network side of a grandmaster's uplink).
// Receivers then observe the attacked domain's offset shifted by the full
// extra delay — the classic gPTP delay attack, invisible to pdelay because
// pdelay frames pass unharmed.
//
// The attack only ever adds latency: an on-path attacker can hold frames,
// not accelerate them.
type SyncDelayAttack struct {
	// DelayNS is the extra one-way delay in nanoseconds; non-positive
	// values disable the attack.
	DelayNS float64
	// Dir is the attacked link direction (0 = ends[0]→ends[1]).
	Dir int
	// Domain restricts the attack to one gPTP domain; -1 attacks every
	// Sync on the link.
	Domain int
}

// ExtraDelayNS implements netsim.DelayAttack.
func (a SyncDelayAttack) ExtraDelayNS(f *netsim.Frame, dir int) float64 {
	if a.DelayNS <= 0 || dir != a.Dir || f.Priority != netsim.PriorityPTP {
		return 0
	}
	s, ok := f.Payload.(*gptp.Sync)
	if !ok {
		return 0
	}
	if a.Domain >= 0 && s.Domain != a.Domain {
		return 0
	}
	return a.DelayNS
}
