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

// Bad reports whether the channel currently sits in the Bad state.
func (g *GilbertElliott) Bad() bool { return g.bad }

// Impairment is a fault-injection filter for robustness testing: it can
// randomly drop, duplicate, delay-reorder, or corrupt packets crossing a
// host. All probabilities are per packet and independent; zero values
// disable the corresponding fault. Corruption flips a bit in the Rwnd
// field *without* fixing the checksum, so checksum-verifying receivers
// must discard the packet.
type Impairment struct {
	Eng *sim.Engine
	Rng *sim.RNG

	DropP        float64
	DupP         float64
	ReorderP     float64 // victim is held and re-injected after ReorderDelay
	ReorderDelay int64
	CorruptP     float64

	// GE, when non-nil, additionally runs every packet through a
	// Gilbert–Elliott burst-loss channel (checked before the independent
	// per-packet faults).
	GE *GilbertElliott

	// Disabled suspends the impairment entirely — no drops and, crucially,
	// no RNG draws, so a fault window can toggle an impairment on and off
	// without perturbing the run's random sequence outside the window.
	Disabled bool

	// Direction selection; both default to impairing.
	SkipInbound  bool
	SkipOutbound bool

	host *Host

	// Bound injection callbacks cached at attach time so duplicate and
	// reorder re-injections schedule without a per-event closure.
	injectInFn  func(any)
	injectOutFn func(any)

	Dropped, Duplicated, Reordered, Corrupted int64
}

// AttachImpairment installs the impairment on the host's filter chains and
// wires its injection path.
func AttachImpairment(h *Host, imp *Impairment) *Impairment {
	if imp.Eng == nil {
		imp.Eng = h.Eng
	}
	if imp.Rng == nil {
		panic("netem: impairment needs an RNG")
	}
	imp.host = h
	imp.injectInFn = imp.injectInbound
	imp.injectOutFn = imp.injectOutbound
	h.AddFilter(imp)
	return imp
}

// injectInbound / injectOutbound are the ScheduleArg forms of the host
// injection entry points.
func (im *Impairment) injectInbound(a any)  { im.host.InjectInbound(a.(*Packet)) }
func (im *Impairment) injectOutbound(a any) { im.host.InjectOutbound(a.(*Packet)) }

// Name implements Filter.
func (im *Impairment) Name() string { return "impair" }

// Outbound implements Filter.
func (im *Impairment) Outbound(p *Packet) Verdict {
	if im.SkipOutbound {
		return VerdictPass
	}
	return im.apply(p, false)
}

// Inbound implements Filter.
func (im *Impairment) Inbound(p *Packet) Verdict {
	if im.SkipInbound {
		return VerdictPass
	}
	return im.apply(p, true)
}

func (im *Impairment) apply(p *Packet, inbound bool) Verdict {
	if im.Disabled {
		return VerdictPass
	}
	if im.GE != nil && im.GE.Drop() {
		im.Dropped++
		return VerdictDrop
	}
	if im.DropP > 0 && im.Rng.Float64() < im.DropP {
		im.Dropped++
		return VerdictDrop
	}
	if im.CorruptP > 0 && im.Rng.Float64() < im.CorruptP {
		im.Corrupted++
		p.Rwnd ^= 0x0040 // bit flip; checksum left stale on purpose
	}
	if im.DupP > 0 && im.Rng.Float64() < im.DupP {
		im.Duplicated++
		clone := im.host.ClonePacket(p)
		clone.ID = im.host.NextPacketID()
		im.inject(clone, inbound, 0)
	}
	if im.ReorderP > 0 && im.Rng.Float64() < im.ReorderP {
		im.Reordered++
		delay := im.ReorderDelay
		if delay <= 0 {
			delay = 100 * sim.Microsecond
		}
		victim := p
		im.inject(victim, inbound, delay)
		return VerdictStolen
	}
	return VerdictPass
}

func (im *Impairment) inject(p *Packet, inbound bool, delay int64) {
	deliver := im.injectOutFn
	if inbound {
		deliver = im.injectInFn
	}
	if delay < 0 {
		// Duplicates go out immediately but from a fresh event, so the
		// original keeps its place in the chain.
		delay = 0
	}
	im.Eng.ScheduleArg(delay, deliver, p)
}
