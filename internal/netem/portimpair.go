package netem

import (
	"fmt"

	"hwatch/internal/sim"
)

// Port-level impairments: the production-chaos surface a tool like Pumba
// drives through tc-netem, modeled deterministically on a single port.
// A PortImpair attaches at one of two pipeline stages —
//
//   - ingress: between the port's fault hooks and its output queue, so
//     the AQM sees (and accounts) the impaired stream, and
//   - egress: between the transmitter and the propagation delay, so the
//     queue drains untouched and the wire carries the impairment —
//
// and applies any combination of five independent impairment kinds:
// corruption (checksum-visible bit flips, optionally dropped at the port
// like an FCS-failing frame), bounded duplication, hold-and-release
// reordering, per-packet jitter from a pluggable delay distribution, and
// token-bucket rate limiting (egress only). Every probabilistic kind
// draws from its own seeded RNG and draws nothing while disabled, so a
// fault window can open and close without perturbing the run's random
// sequences outside the window. internal/faults arms and clears the
// kinds over its scheduled windows.

// ImpairStats counts per-kind impairment actions on one port stage.
type ImpairStats struct {
	Corrupted    int64 // packets bit-flipped (checksum left stale)
	CorruptDrops int64 // corrupted packets dropped at the port (FCS fail)
	Duplicated   int64 // extra copies injected
	Reordered    int64 // packets held for out-of-order release
	Jittered     int64 // packets given extra distribution-drawn delay
	RateLimited  int64 // packets delayed by the token bucket
	RateDelayNs  int64 // cumulative token-bucket delay, ns

	// Held counts packets currently parked in the ingress hold buffer.
	// It must be zero once a run drains: residue here means a hold was
	// never released — the invariant FuzzReorderBuffer and the recovery
	// observer assert.
	Held int64
}

// Add folds other into s (for aggregation across armed ports).
func (s *ImpairStats) Add(other ImpairStats) {
	s.Corrupted += other.Corrupted
	s.CorruptDrops += other.CorruptDrops
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
	s.Jittered += other.Jittered
	s.RateLimited += other.RateLimited
	s.RateDelayNs += other.RateDelayNs
	s.Held += other.Held
}

// DelayDist is a pluggable per-packet delay distribution for jitter
// impairments. Draw returns a non-negative delay in nanoseconds; all
// randomness must come from the supplied RNG so the jitter stream is a
// pure function of the run seed.
type DelayDist interface {
	Name() string
	Draw(rng *sim.RNG) int64
}

// UniformDelay draws uniformly from [Lo, Hi] ns.
type UniformDelay struct{ Lo, Hi int64 }

// Name implements DelayDist.
func (d UniformDelay) Name() string { return "uniform" }

// Draw implements DelayDist.
func (d UniformDelay) Draw(rng *sim.RNG) int64 {
	lo := d.Lo
	if lo < 0 {
		lo = 0
	}
	return rng.UniformRange(lo, d.Hi)
}

// NormalDelay approximates a normal delay with the given mean and sigma
// (Irwin–Hall: the sum of 12 uniforms), truncated to [0, Max]; Max <= 0
// defaults to mean + 4 sigma.
type NormalDelay struct{ Mean, Sigma, Max int64 }

// Name implements DelayDist.
func (d NormalDelay) Name() string { return "normal" }

// Draw implements DelayDist.
func (d NormalDelay) Draw(rng *sim.RNG) int64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += rng.Float64()
	}
	x := float64(d.Mean) + (s-6)*float64(d.Sigma)
	max := d.Max
	if max <= 0 {
		max = d.Mean + 4*d.Sigma
	}
	switch {
	case x < 0:
		return 0
	case x > float64(max):
		return max
	}
	return int64(x)
}

// ParetoDelay draws a heavy-tailed bounded-Pareto delay with minimum
// Scale, shape Shape and truncation Max (the long-RTT tail of a jittery
// WAN hop).
type ParetoDelay struct {
	Shape      float64
	Scale, Max int64
}

// Name implements DelayDist.
func (d ParetoDelay) Name() string { return "pareto" }

// Draw implements DelayDist.
func (d ParetoDelay) Draw(rng *sim.RNG) int64 { return rng.Pareto(d.Shape, d.Scale, d.Max) }

// PortImpair is one port stage's impairment pipeline. Construct via
// Port.Impair; arm kinds with the Set* methods (zeroed parameters clear a
// kind). All per-packet processing runs on the port's engine, so draws
// happen in deterministic event order at any shard count.
type PortImpair struct {
	port   *Port
	egress bool

	corruptP    float64
	corruptDrop float64 // fraction of corrupted packets dropped outright
	corruptRng  *sim.RNG

	dupP      float64
	dupCopies int
	dupRng    *sim.RNG

	reorderP    float64
	reorderHold int64
	reorderRng  *sim.RNG

	jitterDist DelayDist
	jitterRng  *sim.RNG

	rateBps  int64 // token-bucket rate (0 = unlimited)
	burstTok int64 // bucket capacity, bit-ns
	tokens   int64 // current fill, bit-ns
	lastFill int64 // clock of the last refill

	// releaseFn is the cached bound callback ingress holds re-enter
	// through, so holding a packet costs one event and no closure.
	releaseFn func(any)

	stats ImpairStats
}

// Impair returns the port's impairment pipeline for the given stage,
// creating an inert one on first use. egress=false attaches ahead of the
// output queue; egress=true attaches on the wire side of the transmitter.
func (p *Port) Impair(egress bool) *PortImpair {
	slot := &p.ingressImp
	if egress {
		slot = &p.egressImp
	}
	if *slot == nil {
		im := &PortImpair{port: p, egress: egress}
		im.releaseFn = im.injectRelease
		*slot = im
	}
	return *slot
}

// Stats returns a copy of the per-kind counters.
func (im *PortImpair) Stats() ImpairStats { return im.stats }

// Egress reports which stage the pipeline is attached at.
func (im *PortImpair) Egress() bool { return im.egress }

// SetCorrupt arms per-packet bit-flip corruption: with probability p the
// packet's Rwnd field is flipped and the checksum left stale (so
// checksum-verifying receivers must discard it); a dropFrac fraction of
// corrupted packets is instead dropped at the port, as an FCS-failing
// frame would be. p <= 0 clears the kind; no draws happen while clear.
func (im *PortImpair) SetCorrupt(p, dropFrac float64, rng *sim.RNG) {
	if p > 0 && rng == nil {
		panic("netem: corrupt impairment needs an RNG")
	}
	im.corruptP, im.corruptDrop, im.corruptRng = p, dropFrac, rng
}

// SetDuplicate arms per-packet duplication: with probability p the packet
// is cloned copies times (bounded; <= 0 means 1) and the copies re-enter
// right behind the original. Clones keep the original's packet ID — a
// duplicated frame is the same bytes on the wire twice. p <= 0 clears.
func (im *PortImpair) SetDuplicate(p float64, copies int, rng *sim.RNG) {
	if p > 0 && rng == nil {
		panic("netem: duplicate impairment needs an RNG")
	}
	if copies <= 0 {
		copies = 1
	}
	im.dupP, im.dupCopies, im.dupRng = p, copies, rng
}

// SetReorder arms hold-and-release reordering: with probability p the
// packet is parked and re-offered after a uniformly drawn delay in
// (0, hold], letting packets behind it overtake. p <= 0 clears; packets
// already held still release.
func (im *PortImpair) SetReorder(p float64, hold int64, rng *sim.RNG) {
	if p > 0 && rng == nil {
		panic("netem: reorder impairment needs an RNG")
	}
	if p > 0 && hold <= 0 {
		hold = 100 * sim.Microsecond
	}
	im.reorderP, im.reorderHold, im.reorderRng = p, hold, rng
}

// SetJitter arms per-packet delay jitter from the given distribution
// (every packet draws; a zero draw passes untouched). dist == nil clears.
func (im *PortImpair) SetJitter(dist DelayDist, rng *sim.RNG) {
	if dist != nil && rng == nil {
		panic("netem: jitter impairment needs an RNG")
	}
	im.jitterDist, im.jitterRng = dist, rng
}

// SetRate arms a token-bucket rate limit of rateBps with the given burst
// (bytes; <= 0 defaults to two MTUs). Egress stage only: the bucket paces
// the transmitter, so limiting below the link rate builds standing queue
// exactly as a shaped port would. rateBps <= 0 clears.
func (im *PortImpair) SetRate(rateBps int64, burstBytes int) {
	if !im.egress && rateBps > 0 {
		panic("netem: rate limiting attaches at the egress stage")
	}
	if burstBytes <= 0 {
		burstBytes = 2 * DefaultMTU
	}
	im.rateBps = rateBps
	im.burstTok = int64(burstBytes) * 8 * sim.Second
	im.tokens = im.burstTok // bucket starts full
	im.lastFill = im.port.Eng.Now()
}

// Forward runs pkt through the armed kinds and passes it on: to the
// output queue (ingress stage) or to delivery scheduling (egress stage).
// Ownership transfers with the call; held packets are owned by their
// pending release events.
func (im *PortImpair) Forward(pkt *Packet) {
	if im.corruptP > 0 && im.corruptRng.Float64() < im.corruptP {
		im.stats.Corrupted++
		pkt.Rwnd ^= 0x0040 // bit flip; checksum left stale on purpose
		if im.corruptDrop > 0 && im.corruptRng.Float64() < im.corruptDrop {
			im.stats.CorruptDrops++
			im.port.free.ReleasePacket(pkt)
			return
		}
	}
	if im.dupP > 0 && im.dupRng.Float64() < im.dupP {
		for i := 0; i < im.dupCopies; i++ {
			im.stats.Duplicated++
			clone := im.port.free.ClonePacket(pkt)
			if im.egress {
				im.port.scheduleDeliver(clone, 0)
			} else {
				// From a fresh event at +0, so the original keeps its place.
				im.port.Eng.ScheduleArg(0, im.port.injectQueueFn, clone)
			}
		}
	}
	if im.reorderP > 0 && im.reorderRng.Float64() < im.reorderP {
		im.stats.Reordered++
		hold := 1 + im.reorderRng.Int63n(im.reorderHold)
		if im.egress {
			im.port.scheduleDeliver(pkt, hold)
		} else {
			im.injectHold(pkt, hold)
		}
		return
	}
	if im.jitterDist != nil {
		if d := im.jitterDist.Draw(im.jitterRng); d > 0 {
			im.stats.Jittered++
			if im.egress {
				im.port.scheduleDeliver(pkt, d)
			} else {
				im.injectHold(pkt, d)
			}
			return
		}
	}
	if im.egress {
		im.port.scheduleDeliver(pkt, 0)
	} else {
		im.port.injectQueue(pkt)
	}
}

// injectHold parks pkt for delay ns, then re-offers it to the output queue.
// The pending release event owns the packet meanwhile.
func (im *PortImpair) injectHold(pkt *Packet, delay int64) {
	im.stats.Held++
	im.port.Eng.ScheduleArg(delay, im.releaseFn, pkt)
}

// injectRelease is the hold buffer's release path: same-instant releases
// fire in hold order (engine FIFO by scheduling time), so the buffer is
// FIFO within equal release times.
func (im *PortImpair) injectRelease(a any) {
	im.stats.Held--
	im.port.injectQueue(a.(*Packet))
}

// rateWait refills the token bucket to now, takes wire bytes from it and
// returns how long the transmitter must stall before clocking the packet
// out (0 when the bucket covers it).
func (im *PortImpair) rateWait(now int64, wire int) int64 {
	if im.rateBps <= 0 {
		return 0
	}
	// Tokens are bit-nanoseconds: rateBps of fill per ns, a packet costs
	// bits * 1e9. Clamp the refill interval to what fills the bucket so
	// the multiply cannot overflow after a long idle gap.
	elapsed := now - im.lastFill
	if full := im.burstTok / im.rateBps; elapsed > full {
		elapsed = full + 1
	}
	im.tokens += elapsed * im.rateBps
	if im.tokens > im.burstTok {
		im.tokens = im.burstTok
	}
	im.lastFill = now
	cost := int64(wire) * 8 * sim.Second
	if im.tokens >= cost {
		im.tokens -= cost
		return 0
	}
	wait := (cost - im.tokens + im.rateBps - 1) / im.rateBps
	im.tokens = 0
	im.lastFill = now + wait // the stall itself earns no extra tokens
	im.stats.RateLimited++
	im.stats.RateDelayNs += wait
	return wait
}

func (im *PortImpair) String() string {
	stage := "ingress"
	if im.egress {
		stage = "egress"
	}
	return fmt.Sprintf("impair[%s %s]", im.port.Label, stage)
}
