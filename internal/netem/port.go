package netem

import (
	"fmt"

	"hwatch/internal/sim"
)

// Deliverer receives packets from a link endpoint.
type Deliverer interface {
	Deliver(pkt *Packet)
}

// Queue is the output-queue discipline attached to a port. Implementations
// live in internal/aqm; the interface is declared here, on the consumer
// side, so netem does not depend on aqm.
//
// Enqueue may drop (returning false) or ECN-mark the packet according to the
// discipline; Dequeue returns nil when empty.
//
// The port relies on one contract: an empty Dequeue with no Enqueue since
// the Dequeue that emptied the queue has no effect. A transmitter that
// empties its queue therefore skips the empty Dequeue its completion would
// make, unless an Enqueue — accepted or dropped — comes first.
type Queue interface {
	Enqueue(pkt *Packet) bool
	Dequeue() *Packet
	Len() int   // packets queued
	Bytes() int // bytes queued
}

// PortStats counts traffic through a port. Drops at the queue are accounted
// by the queue discipline's own statistics; the fault counters account
// packets lost to injected faults before they reach the queue.
type PortStats struct {
	TxPackets int64
	TxBytes   int64

	DownDrops   int64 // packets offered while the link was down
	ProbeDrops  int64 // probe packets eaten by a probe blackout
	FaultDrops  int64 // packets taken by an installed loss process
	EcnStripped int64 // codepoints erased by an ECN blackhole
}

// Port is one unidirectional link attachment: an output queue, a serializing
// transmitter of RateBps, and a propagation delay to the peer. Full-duplex
// links are modeled as one Port on each side.
type Port struct {
	Eng     *sim.Engine
	Q       Queue
	RateBps int64 // link rate, bits per second
	Delay   int64 // one-way propagation delay, ns

	Label string // for diagnostics ("sw0.p3")

	peer  Deliverer
	stats PortStats

	// free is the network's free list, where the port's drop sites
	// release (nil for a port no Network bound: the GC takes its drops).
	free *freeList

	// busy: a completion event is in the queue. late: the completion of
	// the packet on the wire is only reserved, because its queue was
	// empty after the dequeue; the first Enqueue while it is still owed
	// inserts it (see injectQueue). lateTx is where every hop reserves its
	// completion, and it is meaningful only while late. twoEvent, a test
	// switch, keeps the two-event path on every hop.
	busy     bool
	late     bool
	lateTx   sim.Reservation
	twoEvent bool

	// The last SerializationDelay: the delay of serSize bytes at serRate.
	serSize  int
	serRate  int64
	serDelay int64

	// remote is the engine owning the peer when the link crosses a shard
	// boundary (nil for a same-shard link). Delivery is then a cross-shard
	// send (sim.Engine.ScheduleRemoteArg) instead of a local schedule.
	remote *sim.Engine

	// Fault state, driven by internal/faults (all zero in a healthy run).
	down       bool
	stripECN   bool
	dropProbes bool
	lossFn     func(*Packet) bool

	// Impairment pipelines, created lazily by Impair (nil in a healthy
	// run, so the hot path pays one pointer test per stage).
	ingressImp *PortImpair
	egressImp  *PortImpair

	// Bound event callbacks, cached once so the per-packet transmit path
	// schedules without building closures.
	txDoneFn      func(any)
	deliverFn     func(any)
	injectQueueFn func(any)
}

// clockedQueue is implemented by disciplines that read simulation time
// (RED idle aging). NewPort rebinds them to the engine that
// owns the port, so the queue never reads another shard's clock.
type clockedQueue interface{ SetClock(func() int64) }

// NewPort returns a port transmitting at rateBps with the given one-way
// propagation delay and queue discipline.
func NewPort(eng *sim.Engine, q Queue, rateBps, delay int64) *Port {
	if rateBps <= 0 {
		panic("netem: port rate must be positive")
	}
	if cq, ok := q.(clockedQueue); ok {
		cq.SetClock(eng.Now)
	}
	p := &Port{Eng: eng, Q: q, RateBps: rateBps, Delay: delay}
	p.txDoneFn = p.txDone
	p.deliverFn = p.deliver
	p.injectQueueFn = p.injectQueueArg
	return p
}

// Connect attaches the receiving end of the link.
func (p *Port) Connect(peer Deliverer) { p.peer = peer }

// BindRemote marks the peer as living on dst's shard. Packet ownership
// transfers with the delivery event: the sender inserts it into the
// destination shard's engine when it starts clocking the packet out and
// never touches the packet again. The link's propagation delay must be at
// least the group lookahead.
func (p *Port) BindRemote(dst *sim.Engine) {
	if dst == p.Eng {
		dst = nil
	}
	p.remote = dst
}

// Stats returns a copy of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// SerializationDelay returns the time to clock size bytes onto the wire.
// A port mostly carries one packet size, so it keeps the last answer and
// divides only when the size or RateBps differs from the last call's.
func (p *Port) SerializationDelay(size int) int64 {
	if size != p.serSize || p.RateBps != p.serRate {
		p.serSize, p.serRate = size, p.RateBps
		p.serDelay = int64(size) * 8 * sim.Second / p.RateBps
	}
	return p.serDelay
}

// SetDown fails or restores the link. While down, every packet offered to
// the port is lost (a cable pull loses the frames in flight on it) and the
// transmitter pauses; packets already queued are preserved and drain when
// the link comes back, as a paused egress port's buffer would.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if !down && !p.transmitting() {
		p.transmitNext()
	}
}

// Down reports whether the link is administratively failed.
func (p *Port) Down() bool { return p.down }

// SetStripECN makes the port erase ECN codepoints (CE and ECT alike)
// before its queue sees the packet — a legacy non-ECN hop: the AQM treats
// traffic as ECN-incapable, so it drops where it would have marked, and
// upstream marks never reach the receiver.
func (p *Port) SetStripECN(on bool) { p.stripECN = on }

// SetDropProbes makes the port eat probe packets only (an ACL or middlebox
// that discards the shim's raw-IP probes while TCP passes untouched).
func (p *Port) SetDropProbes(on bool) { p.dropProbes = on }

// SetLoss installs a loss process consulted for every packet offered to
// the port (nil removes it). The function must be deterministic given the
// run's seeded RNG; internal/faults uses it for burst-loss windows.
func (p *Port) SetLoss(fn func(*Packet) bool) { p.lossFn = fn }

// Send enqueues the packet for transmission, starting the transmitter if it
// is idle. The queue discipline may drop or mark the packet.
func (p *Port) Send(pkt *Packet) {
	if p.peer == nil {
		panic(fmt.Sprintf("netem: port %q unconnected", p.Label))
	}
	if p.down {
		p.stats.DownDrops++
		p.free.ReleasePacket(pkt)
		return
	}
	if p.stripECN && pkt.ECN != NotECT {
		pkt.ECN = NotECT
		p.stats.EcnStripped++
	}
	if p.dropProbes && pkt.Probe {
		p.stats.ProbeDrops++
		p.free.ReleasePacket(pkt)
		return
	}
	if p.lossFn != nil && p.lossFn(pkt) {
		p.stats.FaultDrops++
		p.free.ReleasePacket(pkt)
		return
	}
	if p.ingressImp != nil {
		p.ingressImp.Forward(pkt) // owns pkt; re-offers via injectQueue
		return
	}
	p.injectQueue(pkt)
}

// injectQueue is the back half of Send — queue the packet and kick the
// transmitter — and the re-entry point for ingress impairments (held
// packets, duplicate copies). Ownership transfers with the call.
func (p *Port) injectQueue(pkt *Packet) {
	pkt.EnqueuedAt = p.Eng.Now()
	ok := p.Q.Enqueue(pkt)
	if p.late {
		// The reserved completion owes its Dequeue to this Enqueue even
		// when the discipline dropped the packet: RED clears its idle
		// flag before an early drop, and only that Dequeue sets it again.
		p.late = false
		if p.Eng.Owed(&p.lateTx) {
			p.Eng.InsertReserved(&p.lateTx, txNext, p)
			p.busy = true
		}
	}
	if !ok {
		p.free.ReleasePacket(pkt) // dropped by the discipline
		return
	}
	if !p.busy {
		p.transmitNext()
	}
}

// injectQueueArg is injectQueue behind the cached func(any) signature that
// scheduled re-offers (duplicate copies, hold releases) go through.
func (p *Port) injectQueueArg(a any) { p.injectQueue(a.(*Packet)) }

// transmitting reports whether a packet's completion is still to come.
func (p *Port) transmitting() bool {
	return p.busy || p.late && p.Eng.Owed(&p.lateTx)
}

// transmitNext starts clocking out the head of the queue. A hop costs one
// event: the completion (txDone) is reserved, the delivery is scheduled at
// once as its child 0, and the completion is inserted only if the queue
// still holds a packet for it to start. Egress impairments act at
// completion time, so an impaired port keeps the two-event path.
func (p *Port) transmitNext() {
	p.busy, p.late = false, false
	if p.down {
		return
	}
	pkt := p.Q.Dequeue()
	if pkt == nil {
		return
	}
	txTime := p.SerializationDelay(pkt.Wire)
	p.stats.TxPackets++
	p.stats.TxBytes += int64(pkt.Wire)
	if p.egressImp != nil || p.twoEvent {
		if p.egressImp != nil {
			// A token-bucket shaper stalls the transmitter before clocking
			// the packet out, so sub-line rates build standing queue
			// upstream.
			txTime += p.egressImp.rateWait(p.Eng.Now(), pkt.Wire)
		}
		p.busy = true
		p.Eng.ScheduleArg(txTime, p.txDoneFn, pkt)
		return
	}
	r := &p.lateTx
	p.Eng.Reserve(r, txTime)
	if p.remote != nil {
		p.Eng.ScheduleRemoteChildArg(p.remote, r, 0, p.Delay, p.deliverFn, pkt)
	} else {
		p.Eng.ScheduleChildArg(r, 0, p.Delay, p.deliverFn, pkt)
	}
	if p.Q.Len() > 0 {
		p.Eng.InsertReserved(r, txNext, p)
		p.busy = true
	} else {
		p.late = true
	}
}

// txDone fires when the last bit is on the wire, on the two-event path:
// deliver after propagation (through the egress impairments, if any), then
// start the next packet. Cross-shard links send the delivery to the peer's
// shard.
func (p *Port) txDone(arg any) {
	if p.egressImp != nil {
		p.egressImp.Forward(arg.(*Packet)) // owns it; schedules delivery
	} else {
		p.scheduleDeliver(arg.(*Packet), 0)
	}
	p.transmitNext()
}

// txNext is the one-event path's completion: the delivery is already
// scheduled, so it only starts the next packet. A plain function with the
// port as its argument costs no bound-method closure per port.
func txNext(a any) { a.(*Port).transmitNext() }

// scheduleDeliver queues the delivery event after propagation plus any
// impairment-added extra delay (extra >= 0, so a cross-shard link's delay
// never drops below the group lookahead).
func (p *Port) scheduleDeliver(pkt *Packet, extra int64) {
	if p.remote != nil {
		p.Eng.ScheduleRemoteArg(p.remote, p.Delay+extra, p.deliverFn, pkt)
	} else {
		p.Eng.ScheduleArg(p.Delay+extra, p.deliverFn, pkt)
	}
}

func (p *Port) deliver(arg any) { p.peer.Deliver(arg.(*Packet)) }
