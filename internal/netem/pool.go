package netem

// Packet recycling. Every shard of a Network owns one free list of packets,
// and a packet's life follows a strict linear-ownership contract
// (documented in DESIGN.md §6e):
//
//   - Whoever allocates a packet owns it until ownership transfers: handing
//     it to Port.Send, Host.Send, Deliver or InjectInbound/InjectOutbound
//     gives it away; a filter returning VerdictStolen takes it.
//   - The owner at the end of a packet's life — a drop site, or the host
//     after the transport handler returns — calls ReleasePacket exactly
//     once, on the list of the shard it runs on. Touching a packet after
//     release is a bug; build with -tags poolpoison to make such bugs
//     corrupt digests loudly instead of silently reading recycled-then-
//     zeroed memory.
//   - Packets parked in queues or in-flight engine events are owned by
//     those structures; anything still parked when a run ends is simply
//     garbage collected, together with the network's lists.
//
// Recycling is semantically invisible: AllocPacket always returns a fully
// zeroed packet. A list belongs to one run, so a packet released in one
// run can never surface in another.

// freeList is one shard's recycled packets, a stack linked through
// Packet.next: the packet released last is allocated next, still
// cache-hot, and the list grows without allocating. Only the goroutine
// running the shard touches it, so it takes no lock; a packet may migrate
// between shards' lists, released where its life ends. A nil list
// recycles nothing: it allocates fresh packets and leaves released ones to
// the GC, and so does a list that is off.
type freeList struct {
	head *Packet
	n    int
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
	l.n--
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
	l.n++
}

// move transfers k packets from the top of src to the top of l.
func (l *freeList) move(src *freeList, k int) {
	for i := 0; i < k; i++ {
		p := src.head
		src.head, p.next, l.head = p.next, l.head, p
	}
	src.n -= k
	l.n += k
}

// ClonePacket returns a copy of p allocated from the list (the Sack slice
// backing array is shared; releasing either copy only drops its reference).
func (l *freeList) ClonePacket(p *Packet) *Packet {
	q := l.AllocPacket()
	*q = *p
	return q
}

// AllocPacket returns a fresh zeroed packet, for callers that send into a
// network from outside it (benchmarks, tests). Code running on a shard
// allocates from its host's list instead (Host.AllocPacket).
func AllocPacket() *Packet { return new(Packet) }
