package netem

import (
	"fmt"

	"hwatch/internal/sim"
)

// Handler consumes packets delivered to a local TCP endpoint ("guest VM"
// stack in the paper's terms).
type Handler interface {
	HandlePacket(pkt *Packet)
}

// Listener creates a Handler for an inbound connection request (SYN) on a
// listening port, or returns nil to refuse it.
type Listener func(syn *Packet) Handler

// Verdict is a filter's decision about a packet, mirroring NetFilter.
type Verdict int

const (
	// VerdictPass lets the (possibly modified) packet continue.
	VerdictPass Verdict = iota
	// VerdictDrop discards the packet.
	VerdictDrop
	// VerdictStolen transfers ownership to the filter, which may re-inject
	// it later via Host.InjectOutbound / Host.InjectInbound.
	VerdictStolen
)

// Filter is a hypervisor-level packet hook on a host: it sees every packet
// entering or leaving the guest stacks, exactly like the paper's NetFilter /
// OvS-datapath shim. Filters may mutate packets (e.g. rewrite rwnd and
// patch the checksum) before passing them on.
type Filter interface {
	Outbound(pkt *Packet) Verdict // guest -> network
	Inbound(pkt *Packet) Verdict  // network -> guest
}

// ConnID identifies a connection endpoint on a host for demultiplexing.
type ConnID struct {
	LocalPort  uint16
	Remote     NodeID
	RemotePort uint16
}

// HostStats counts host-level anomalies and traffic.
type HostStats struct {
	RxPackets     int64
	TxPackets     int64
	Orphans       int64 // packets with no matching connection or listener
	FilterDrops   int64
	FilterSteal   int64
	ChecksumDrops int64 // inbound packets failing verification
}

// Host is an end system: a NIC (uplink port), a demux table of transport
// endpoints, and ingress/egress filter chains where the HWatch shim attaches.
type Host struct {
	ID   NodeID
	Name string
	Eng  *sim.Engine

	uplink     *Port
	conns      connTable
	listeners  map[uint16]Listener
	inFilters  []Filter
	outFilters []Filter
	stats      HostStats

	// VerifyChecksums makes the host discard inbound transport packets
	// whose checksum does not verify (as a real NIC/stack would), counting
	// them in Stats().ChecksumDrops. Probes are exempt (they are consumed
	// by the shim before the stack).
	VerifyChecksums bool

	nextEphemeral uint16
	pktID         *uint64   // the shard's packet-ID counter
	free          *freeList // the network's packet free list
}

// newHost returns a host with the given address, drawing packet IDs from
// its shard's counter and packets from the network's free list.
func newHost(eng *sim.Engine, id NodeID, name string, pktID *uint64, free *freeList) *Host {
	return &Host{
		ID: id, Name: name, Eng: eng,
		listeners:     make(map[uint16]Listener),
		nextEphemeral: 33000,
		pktID:         pktID,
		free:          free,
	}
}

// AttachUplink sets the host's NIC egress port.
func (h *Host) AttachUplink(p *Port) { h.uplink = p }

// Uplink returns the NIC egress port.
func (h *Host) Uplink() *Port { return h.uplink }

// Stats returns a copy of the host counters.
func (h *Host) Stats() HostStats { return h.stats }

// AddFilter appends f to both the ingress and egress chains.
func (h *Host) AddFilter(f Filter) {
	h.inFilters = append(h.inFilters, f)
	h.outFilters = append(h.outFilters, f)
}

// NextPacketID allocates a unique packet ID.
func (h *Host) NextPacketID() uint64 {
	*h.pktID++
	return *h.pktID
}

// AllocPacket returns a zeroed packet from the network's free list.
// Transports and the shim allocate every packet they send here.
func (h *Host) AllocPacket() *Packet { return h.free.AllocPacket() }

// ReleasePacket returns p to the network's free list; see the ownership
// contract in pool.go.
func (h *Host) ReleasePacket(p *Packet) { h.free.ReleasePacket(p) }

// AllocPort returns a fresh ephemeral source port.
func (h *Host) AllocPort() uint16 {
	p := h.nextEphemeral
	h.nextEphemeral++
	if h.nextEphemeral == 0 { // wrapped
		h.nextEphemeral = 33000
	}
	return p
}

// Bind registers a connection endpoint handler.
func (h *Host) Bind(id ConnID, hd Handler) {
	if hd == nil {
		panic(fmt.Sprintf("netem: %s nil handler for %+v", h.Name, id))
	}
	if h.conns.get(id) != nil {
		panic(fmt.Sprintf("netem: %s double bind %+v", h.Name, id))
	}
	h.conns.put(id, hd)
}

// Unbind removes a connection endpoint (e.g. after FIN teardown).
func (h *Host) Unbind(id ConnID) { h.conns.del(id) }

// Listen installs a connection factory on a local port.
func (h *Host) Listen(port uint16, l Listener) { h.listeners[port] = l }

// Send carries a guest-generated packet through the egress filter chain and
// onto the wire. The hypervisor filters may mutate, drop or steal it.
func (h *Host) Send(pkt *Packet) {
	for _, f := range h.outFilters {
		switch f.Outbound(pkt) {
		case VerdictDrop:
			h.stats.FilterDrops++
			h.ReleasePacket(pkt)
			return
		case VerdictStolen:
			h.stats.FilterSteal++
			return //hwatchvet:allow pktown VerdictStolen transfers ownership to the filter, a conditional transfer the dataflow cannot see
		}
	}
	h.transmit(pkt)
}

// InjectOutbound puts a hypervisor-generated or previously stolen packet on
// the wire, bypassing the egress filters (the shim already saw it).
func (h *Host) InjectOutbound(pkt *Packet) { h.transmit(pkt) }

// InjectInbound delivers a previously stolen packet up to the guest,
// bypassing the ingress filters.
func (h *Host) InjectInbound(pkt *Packet) { h.deliverUp(pkt) }

func (h *Host) transmit(pkt *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netem: host %s has no uplink", h.Name))
	}
	h.stats.TxPackets++
	h.uplink.Send(pkt)
}

// Deliver implements Deliverer: packets arriving from the network traverse
// the ingress filter chain, then are demultiplexed to a connection handler
// or a listener.
func (h *Host) Deliver(pkt *Packet) {
	h.stats.RxPackets++
	for _, f := range h.inFilters {
		switch f.Inbound(pkt) {
		case VerdictDrop:
			h.stats.FilterDrops++
			h.ReleasePacket(pkt)
			return
		case VerdictStolen:
			h.stats.FilterSteal++
			return //hwatchvet:allow pktown VerdictStolen transfers ownership to the filter, a conditional transfer the dataflow cannot see
		}
	}
	h.deliverUp(pkt)
}

// deliverUp is the end of a packet's life: whether it reaches a transport
// handler or falls off as an orphan, the host releases it afterwards.
// Handlers must not retain the packet past HandlePacket's return.
func (h *Host) deliverUp(pkt *Packet) {
	if h.VerifyChecksums && !pkt.Probe && !VerifyChecksum(pkt) {
		h.stats.ChecksumDrops++
		h.ReleasePacket(pkt)
		return
	}
	if pkt.Probe {
		// Probes are hypervisor-to-hypervisor; a host without a shim (or a
		// shim that declined it) must not surface them to guests.
		h.stats.Orphans++
		h.ReleasePacket(pkt)
		return
	}
	id := ConnID{LocalPort: pkt.DstPort, Remote: pkt.Src, RemotePort: pkt.SrcPort}
	if hd := h.conns.get(id); hd != nil {
		hd.HandlePacket(pkt)
		h.ReleasePacket(pkt)
		return
	}
	if pkt.Flags.Has(FlagSYN) && !pkt.Flags.Has(FlagACK) {
		if l, ok := h.listeners[pkt.DstPort]; ok {
			if hd := l(pkt); hd != nil {
				h.Bind(id, hd)
				hd.HandlePacket(pkt)
				h.ReleasePacket(pkt)
				return
			}
		}
	}
	h.stats.Orphans++ // stray segment (e.g. retransmit after close)
	h.ReleasePacket(pkt)
}

// connTable is the host's demux table: linear probing on the packed
// ConnID, so a lookup costs a multiply and a probe or two instead of a
// runtime map hash. A slot is free when its handler is nil.
type connTable struct {
	slots []connSlot
	n     int
}

type connSlot struct {
	key uint64
	hd  Handler
}

func connKey(id ConnID) uint64 {
	return uint64(id.LocalPort)<<48 | uint64(id.RemotePort)<<32 | uint64(uint32(id.Remote))
}

// find returns the slot holding key, or the free slot that ends its probe.
func (t *connTable) find(key uint64) int {
	mask := len(t.slots) - 1
	i := int(key*0x9e3779b97f4a7c15>>40) & mask
	for t.slots[i].hd != nil && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

func (t *connTable) get(id ConnID) Handler {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.find(connKey(id))].hd
}

// put adds an absent id, keeping the table at most three quarters full.
func (t *connTable) put(id ConnID, hd Handler) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]connSlot, max(8, 2*len(old)))
		for _, s := range old {
			if s.hd != nil {
				t.slots[t.find(s.key)] = s
			}
		}
	}
	key := connKey(id)
	t.slots[t.find(key)] = connSlot{key, hd}
	t.n++
}

// del removes id if present and re-places the rest of its probe run, so
// every lookup still ends at a free slot.
func (t *connTable) del(id ConnID) {
	if t.n == 0 {
		return
	}
	i := t.find(connKey(id))
	if t.slots[i].hd == nil {
		return
	}
	t.slots[i] = connSlot{}
	t.n--
	for j := (i + 1) & (len(t.slots) - 1); t.slots[j].hd != nil; j = (j + 1) & (len(t.slots) - 1) {
		s := t.slots[j]
		t.slots[j] = connSlot{}
		t.slots[t.find(s.key)] = s
	}
}
