package netsim

import "gptpfta/internal/sim"

// GilbertElliott is the classic two-state burst-loss model: the channel
// alternates between a Good state (loss probability GoodLoss, typically
// near zero) and a Bad state (loss probability BadLoss, typically high),
// with geometric sojourn times set by the per-frame transition
// probabilities GoodToBad and BadToGood. Mean burst length in frames is
// 1/BadToGood.
//
// Determinism: Drop consumes exactly one extra uniform from rng per frame
// (the state-transition draw) regardless of parameter values, honouring
// the LossModel fixed-draw-count contract — a GilbertElliott with all-zero
// rates drops nothing and perturbs no other stream.
type GilbertElliott struct {
	GoodLoss  float64 // loss probability while in the Good state
	BadLoss   float64 // loss probability while in the Bad state
	GoodToBad float64 // per-frame probability of Good -> Bad transition
	BadToGood float64 // per-frame probability of Bad -> Good transition

	bad bool
}

// Drop implements LossModel: decide loss with the frame uniform u at the
// current state's rate, then advance the state machine with one draw.
func (g *GilbertElliott) Drop(u float64, rng *sim.Stream) bool {
	p := g.GoodLoss
	if g.bad {
		p = g.BadLoss
	}
	lost := u < p
	t := rng.Float64()
	if g.bad {
		if t < g.BadToGood {
			g.bad = false
		}
	} else if t < g.GoodToBad {
		g.bad = true
	}
	return lost
}

// Snapshot implements sim.Snapshotter: the channel state is the single
// Good/Bad bit (sojourn randomness lives in the link's loss stream, which
// sim.Streams rewinds).
func (g *GilbertElliott) Snapshot() any { return g.bad }

// Restore implements sim.Snapshotter.
func (g *GilbertElliott) Restore(snap any) { g.bad = snap.(bool) }
