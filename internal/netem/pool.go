package netem

// Packet recycling. A Network owns one free list of packets, shared by its
// shards, and a packet's life follows a strict linear-ownership contract
// (documented in DESIGN.md §6e):
//
//   - Whoever allocates a packet owns it until ownership transfers: handing
//     it to Port.Send, Host.Send, Deliver or InjectInbound/InjectOutbound
//     gives it away; a filter returning VerdictStolen takes it.
//   - The owner at the end of a packet's life — a drop site, or the host
//     after the transport handler returns — calls ReleasePacket exactly
//     once. Touching a packet after release is a bug; build with -tags
//     poolpoison to make such bugs corrupt digests loudly instead of
//     silently reading recycled-then-zeroed memory.
//   - Packets parked in queues or in-flight engine events are owned by
//     those structures; anything still parked when a run ends is simply
//     garbage collected, together with the network's list.
//
// Recycling is semantically invisible: AllocPacket always returns a fully
// zeroed packet. A list belongs to one run, so a packet released in one
// run can never surface in another.

// freeList is a network's recycled packets, a stack linked through
// Packet.next: the packet released last is allocated next, still
// cache-hot, and the list grows without allocating. The shards of a
// sim.Group run one at a time on one goroutine, so the list takes no lock,
// and a packet released on one shard is reused by whichever shard
// allocates next. A nil list recycles nothing: it allocates fresh packets
// and leaves released ones to the GC, and so does a list that is off.
type freeList struct {
	head *Packet
	// off makes the list keep nothing it is given: the oracle a network
	// built under sim's NoSlab option uses, against which recycling must
	// be invisible.
	off bool
}

// AllocPacket returns a zeroed packet, recycled when the list has one.
func (l *freeList) AllocPacket() *Packet {
	if l == nil || l.head == nil {
		return new(Packet)
	}
	p := l.head
	l.head, p.next = p.next, nil
	resetOnAlloc(p)
	return p
}

// ReleasePacket returns p to the list. p must not be touched afterwards;
// nil is accepted so drop sites can release unconditionally.
func (l *freeList) ReleasePacket(p *Packet) {
	if l == nil || p == nil || l.off {
		return
	}
	scrubOnRelease(p)
	p.next, l.head = l.head, p
}

// ClonePacket returns a copy of p allocated from the list (the Sack slice
// backing array is shared; releasing either copy only drops its reference).
func (l *freeList) ClonePacket(p *Packet) *Packet {
	q := l.AllocPacket()
	*q = *p
	return q
}

// AllocPacket returns a fresh zeroed packet, for callers that send into a
// network from outside it (benchmarks, tests). Code running in a network
// allocates from its host's list instead (Host.AllocPacket).
func AllocPacket() *Packet { return new(Packet) }
