// Package netem models the data-center network fabric at packet granularity:
// TCP/IP packet surrogates, rate/delay links with output queues, switches,
// and hosts with hypervisor-style ingress/egress filter chains.
//
// It plays the role ns-2 plays in the HWatch paper: everything above it
// (TCP agents, the HWatch shim, workloads) observes only packets and time.
package netem

import "fmt"

// NodeID addresses a host in the network (an IP-address surrogate).
type NodeID int32

// FlowKey is the TCP 4-tuple identifying one direction of a connection.
type FlowKey struct {
	Src, Dst         NodeID
	SrcPort, DstPort uint16
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d>%d:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Hash mixes the 4-tuple through a splitmix64 finalizer for use as an
// open-addressing table index. It is deliberately seedless: hash values —
// and therefore any probe order derived from them — are identical across
// processes and runs, which the deterministic-replay contract requires
// (the runtime's seeded map hash is exactly what flow tables must avoid).
func (k FlowKey) Hash() uint64 {
	x := uint64(uint32(k.Src))<<32 | uint64(uint32(k.Dst))
	x ^= (uint64(k.SrcPort)<<16 | uint64(k.DstPort)) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TCPFlags are the TCP header flag bits used by the model.
type TCPFlags uint8

const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE // ECN-Echo
	FlagCWR // Congestion Window Reduced
)

func (f TCPFlags) Has(bit TCPFlags) bool { return f&bit != 0 }

func (f TCPFlags) String() string {
	names := []struct {
		bit TCPFlags
		s   string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.s
		}
	}
	if out == "" {
		return "-"
	}
	return out
}

// ECN is the two-bit IP ECN codepoint.
type ECN uint8

const (
	NotECT ECN = iota // not ECN-capable transport
	ECT1              // ECN-capable (1)
	ECT0              // ECN-capable (0)
	CE                // congestion experienced
)

func (e ECN) String() string {
	switch e {
	case NotECT:
		return "NotECT"
	case ECT0:
		return "ECT0"
	case ECT1:
		return "ECT1"
	case CE:
		return "CE"
	}
	return "ECN?"
}

// Capable reports whether the codepoint allows a switch to mark instead of
// dropping.
func (e ECN) Capable() bool { return e == ECT0 || e == ECT1 || e == CE }

// Wire-size constants (bytes). HeaderSize matches Ethernet+IP+TCP without
// options; MinProbeSize matches the paper's 38-byte raw-IP probe (ETH 18 +
// IP 20 + 0 payload).
const (
	EthHeader    = 18
	IPHeader     = 20
	TCPHeader    = 20
	HeaderSize   = EthHeader + IPHeader + TCPHeader
	MinProbeSize = EthHeader + IPHeader
	DefaultMSS   = 1442 // payload bytes so a full segment is 1500 on the wire
	DefaultMTU   = 1500
)

// Packet is the unit of transfer. It is a structural surrogate for an
// Ethernet/IP/TCP packet: fields the model reads are explicit, everything
// else is folded into Wire (total on-wire size).
type Packet struct {
	ID uint64 // globally unique, for tracing

	Src, Dst         NodeID
	SrcPort, DstPort uint16

	Seq, Ack int64    // byte sequence / cumulative ack
	Flags    TCPFlags //
	ECN      ECN      // IP ECN codepoint
	Payload  int      // TCP payload bytes
	Wire     int      // total bytes on the wire (headers + payload)

	// Rwnd is the raw 16-bit receive-window field; the effective window in
	// bytes is Rwnd << peer's window scale. WScaleOpt carries the window
	// scale option on SYN/SYN-ACK segments (-1 when absent).
	Rwnd      uint16
	WScaleOpt int8

	// TSVal / TSEcr model the TCP timestamp option (ns), used for RTT
	// estimation exactly as RFC 7323 echoes them.
	TSVal, TSEcr int64

	// SackOK on SYN/SYN-ACK negotiates selective acknowledgments; Sack
	// carries up to 3 SACK blocks on ACKs (RFC 2018).
	SackOK bool
	Sack   []SackBlock

	// Checksum is the TCP checksum over the canonical header serialization
	// (see Checksum). Set by the sender; middleboxes that rewrite header
	// fields must update it (HWatch does so incrementally, RFC 1624).
	Checksum uint16

	// Probe marks an HWatch hypervisor probe (raw IP, never delivered to
	// the guest stack).
	Probe bool

	// SentAt is the time the transport first put the packet on the host
	// egress path; EnqueuedAt is set by the queue it last entered.
	SentAt     int64
	EnqueuedAt int64

	// Hops counts forwarding steps, as a routing-loop guard.
	Hops int

	// next links a released packet into its shard's free list; nil while
	// the packet is live. It fills what the 160 B size class would pad.
	next *Packet
}

// SackBlock is one selective-acknowledgment range [Start, End).
type SackBlock struct {
	Start, End int64
}

// SackOptionBytes is the wire cost of n SACK blocks (RFC 2018: 2 bytes of
// option header + 8 per block).
func SackOptionBytes(n int) int {
	if n == 0 {
		return 0
	}
	return 2 + 8*n
}

// FlowKey returns the forward-direction 4-tuple of the packet.
func (p *Packet) FlowKey() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort}
}

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.Payload > 0 }

func (p *Packet) String() string {
	return fmt.Sprintf("#%d %s %s seq=%d ack=%d len=%d ecn=%s rwnd=%d",
		p.ID, p.FlowKey(), p.Flags, p.Seq, p.Ack, p.Payload, p.ECN, p.Rwnd)
}

// Clone returns a copy of the packet (used by retransmissions and traces).
func (p *Packet) Clone() *Packet {
	q := *p
	return &q
}
