package netem

import (
	"hwatch/internal/sim"
)

// GEParams parameterizes a Gilbert–Elliott two-state loss channel: the
// chain sits in a Good or a Bad state, transitions per packet with the
// given probabilities, and drops with the state's loss rate. Burst
// lengths are geometric with mean 1/BadToGood packets; gaps between
// bursts have mean 1/GoodToBad. The classic bursty-link model, and the
// loss process the fault injector stages for burst-loss windows.
type GEParams struct {
	GoodToBad float64 // per-packet P(Good -> Bad)
	BadToGood float64 // per-packet P(Bad -> Good)
	LossGood  float64 // drop probability while Good (usually 0)
	LossBad   float64 // drop probability while Bad (often 1)
}

// Enabled reports whether the channel can drop anything at all.
func (g GEParams) Enabled() bool { return g.LossBad > 0 || g.LossGood > 0 }

// GilbertElliott is a running two-state burst-loss channel. It is pure
// state machine — no engine, no clock — so the same seeded RNG always
// yields the same loss pattern: the determinism the golden-digest
// contract needs from fault schedules.
type GilbertElliott struct {
	P   GEParams
	Rng *sim.RNG

	bad   bool
	Seen  int64
	Drops int64
}

// Drop advances the channel by one packet (state transition first, then
// the loss draw in the new state) and reports whether that packet is lost.
func (g *GilbertElliott) Drop() bool {
	g.Seen++
	if g.bad {
		if g.Rng.Float64() < g.P.BadToGood {
			g.bad = false
		}
	} else {
		if g.Rng.Float64() < g.P.GoodToBad {
			g.bad = true
		}
	}
	loss := g.P.LossGood
	if g.bad {
		loss = g.P.LossBad
	}
	if loss > 0 && g.Rng.Float64() < loss {
		g.Drops++
		return true
	}
	return false
}
