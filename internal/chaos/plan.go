// Package chaos is the deterministic network fault-injection subsystem: a
// declarative scenario plan (a timeline of link, bridge, and partition
// faults with absolute or periodic triggers, each ended by its own
// duration) is executed against the simulated topology by an Engine. All
// stochastic behavior the plan enables (burst loss) draws from the links'
// dedicated seed-derived loss streams, so a chaos campaign is
// bit-reproducible from the master seed; the engine itself consumes no
// randomness. With no plan active nothing in this package touches the
// simulation, preserving the golden digests.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "125ms") and unmarshals from either a string or nanoseconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		// float64(math.MaxInt64) rounds up to 2^63, itself out of range.
		if x >= math.MaxInt64 || x < math.MinInt64 {
			return fmt.Errorf("chaos: duration %g ns out of range", x)
		}
		*d = Duration(x)
	default:
		return fmt.Errorf("chaos: duration must be a string or nanoseconds, got %T", v)
	}
	return nil
}

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Action operations.
const (
	OpLinkDown   = "link-down"
	OpBurstLoss  = "burst-loss"
	OpDelaySpike = "delay-spike"
	OpAsymShift  = "asym-shift"
	OpBridgeFail = "bridge-fail"
	OpPartition  = "partition"

	// WAN-tier operations (multi-site fabrics; the bound topology must
	// implement SiteTopology).
	//
	// site-fail kills every switch of the listed sites (the whole LAN goes
	// dark, the site's aggregate clock stops answering). wan-partition
	// severs the gateway-chain links between the listed sites and the
	// rest. wan-asym-drift ramps the listed links' WAN delay axis
	// (Link.SetWanDelay) linearly from its current value to (Extra, Asym)
	// over Duration — a slow path migration, not a step — and then holds;
	// it never auto-reverts (ramp back with a second action targeting
	// zero).
	OpSiteFail     = "site-fail"
	OpWanAsymDrift = "wan-asym-drift"
	OpWanPartition = "wan-partition"
)

// Ops lists every valid action operation.
var Ops = []string{
	OpLinkDown, OpBurstLoss, OpDelaySpike, OpAsymShift, OpBridgeFail, OpPartition,
	OpSiteFail, OpWanAsymDrift, OpWanPartition,
}

// Action is one timeline entry: an operation over named topology elements,
// fired at an absolute instant (At) or periodically (Every, first firing at
// Start or one period in). Every fault ends by its own Duration: the engine
// reverts it that long after each firing, and with Duration zero it stays
// for the rest of the run. wan-asym-drift is the exception: its Duration is
// the ramp time, and the drifted delay holds.
type Action struct {
	// Op is the operation, one of the Op* constants.
	Op string `json:"op"`

	// Links names the target links for link and loss/delay operations.
	// Link names are core topology names: "sw1-sw2" for the bridge mesh,
	// the VM name ("c11") for a VM uplink.
	Links []string `json:"links,omitempty"`
	// Bridges names the target bridges for bridge-fail.
	Bridges []string `json:"bridges,omitempty"`
	// Groups assigns device names to partition sides: every link whose two
	// endpoint devices land in different groups is severed. Devices not
	// named in any group keep all their links.
	Groups [][]string `json:"groups,omitempty"`
	// Sites names target sites (0-based) for the WAN-tier operations
	// site-fail and wan-partition.
	Sites []int `json:"sites,omitempty"`

	// At triggers once at the given simulation time.
	At Duration `json:"at,omitempty"`
	// Every triggers periodically; Start sets the first firing (default:
	// one period in). Mutually exclusive with At.
	Every Duration `json:"every,omitempty"`
	Start Duration `json:"start,omitempty"`

	// Duration reverts the action this long after each firing.
	Duration Duration `json:"duration,omitempty"`

	// Gilbert–Elliott parameters for burst-loss. Each target link gets its
	// own model instance (the burst state machine is per-channel).
	GoodLoss  float64 `json:"good_loss,omitempty"`
	BadLoss   float64 `json:"bad_loss,omitempty"`
	GoodToBad float64 `json:"good_to_bad,omitempty"`
	BadToGood float64 `json:"bad_to_good,omitempty"`

	// Extra is added latency for delay-spike and asym-shift; Asym is the
	// additional one-direction shift for asym-shift.
	Extra Duration `json:"extra,omitempty"`
	Asym  Duration `json:"asym,omitempty"`
}

// Plan is a named scenario: a set of actions executed on one timeline.
type Plan struct {
	Name    string   `json:"name,omitempty"`
	Actions []Action `json:"actions"`
}

// Parse decodes and statically validates a JSON plan.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("chaos: trailing data after JSON object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Validate checks the plan statically (topology names are resolved later,
// when an Engine binds the plan to a concrete system).
func (p *Plan) Validate() error {
	if len(p.Actions) == 0 {
		return fmt.Errorf("chaos: plan %q has no actions", p.Name)
	}
	for i := range p.Actions {
		if err := p.Actions[i].validate(); err != nil {
			return fmt.Errorf("chaos: action %d: %w", i, err)
		}
	}
	return nil
}

func (a *Action) validate() error {
	switch a.Op {
	case OpLinkDown, OpBurstLoss, OpDelaySpike, OpAsymShift:
		if len(a.Links) == 0 {
			return fmt.Errorf("%s: no target links", a.Op)
		}
	case OpBridgeFail:
		if len(a.Bridges) == 0 {
			return fmt.Errorf("%s: no target bridges", a.Op)
		}
	case OpPartition:
		if len(a.Groups) < 2 {
			return fmt.Errorf("partition: need at least 2 groups, got %d", len(a.Groups))
		}
		seen := map[string]bool{}
		for _, g := range a.Groups {
			if len(g) == 0 {
				return fmt.Errorf("partition: empty group")
			}
			for _, dev := range g {
				if seen[dev] {
					return fmt.Errorf("partition: device %q in more than one group", dev)
				}
				seen[dev] = true
			}
		}
	case OpSiteFail, OpWanPartition:
		if len(a.Sites) == 0 {
			return fmt.Errorf("%s: no target sites", a.Op)
		}
		seen := map[int]bool{}
		for _, s := range a.Sites {
			if s < 0 {
				return fmt.Errorf("%s: negative site index %d", a.Op, s)
			}
			if seen[s] {
				return fmt.Errorf("%s: site %d listed twice", a.Op, s)
			}
			seen[s] = true
		}
	case OpWanAsymDrift:
		if len(a.Links) == 0 {
			return fmt.Errorf("%s: no target links", a.Op)
		}
		if a.Duration == 0 {
			return fmt.Errorf("%s: needs a ramp duration", a.Op)
		}
	default:
		return fmt.Errorf("unknown op %q (want one of %s)", a.Op, strings.Join(Ops, ", "))
	}

	if a.At < 0 || a.Every < 0 || a.Start < 0 || a.Duration < 0 || a.Extra < 0 {
		return fmt.Errorf("%s: negative durations are invalid", a.Op)
	}
	if a.At > 0 && a.Every > 0 {
		return fmt.Errorf("%s: at and every are mutually exclusive", a.Op)
	}
	if a.At == 0 && a.Every == 0 {
		return fmt.Errorf("%s: needs a trigger (at or every)", a.Op)
	}
	if a.Start > 0 && a.Every == 0 {
		return fmt.Errorf("%s: start requires every", a.Op)
	}
	if a.Every > 0 && a.Duration >= a.Every {
		return fmt.Errorf("%s: duration %v must be shorter than period %v", a.Op, a.Duration.Std(), a.Every.Std())
	}

	if a.Op == OpBurstLoss {
		for _, v := range []struct {
			name string
			val  float64
		}{
			{"good_loss", a.GoodLoss}, {"bad_loss", a.BadLoss},
			{"good_to_bad", a.GoodToBad}, {"bad_to_good", a.BadToGood},
		} {
			if math.IsNaN(v.val) || v.val < 0 || v.val > 1 {
				return fmt.Errorf("burst-loss: %s = %v outside [0, 1]", v.name, v.val)
			}
		}
		if a.BadLoss == 0 && a.GoodLoss == 0 {
			return fmt.Errorf("burst-loss: all loss rates zero (no-op)")
		}
	}
	if (a.Op == OpDelaySpike || a.Op == OpAsymShift) && a.Extra == 0 && a.Asym == 0 {
		return fmt.Errorf("%s: no delay configured", a.Op)
	}
	// wan-asym-drift may target a negative asymmetry (either direction of
	// the WAN path can be the slow one) and a zero pair (a controlled ramp
	// back to the nominal path); the LAN-tier asym-shift keeps its
	// non-negative contract.
	if a.Asym < 0 && a.Op != OpWanAsymDrift {
		return fmt.Errorf("%s: negative asym shift", a.Op)
	}
	return nil
}

// reverts reports whether the action self-reverts after Duration. For
// wan-asym-drift, Duration is the ramp time, not a revert timer: the
// drifted delay holds until a counter-ramp.
func (a *Action) reverts() bool {
	return a.Duration > 0 && a.Op != OpWanAsymDrift
}
