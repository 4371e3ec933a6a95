package netem

import "math/bits"

// The TCP checksum in this model is the RFC 1071 one's-complement sum over a
// canonical layout of the header fields a middlebox may observe or rewrite.
// It exists so the HWatch shim must do the same work a real hypervisor
// datapath does when it rewrites the receive window: either recompute the
// sum in full or patch it incrementally per RFC 1624.

// maxSackBlocks is how many SACK blocks the checksum covers: the canonical
// layout is 128 bytes, and a fifth block would not fit.
const maxSackBlocks = 4

// w32 sums the two 16-bit words of a 32-bit field.
func w32(x uint32) uint32 { return x&0xffff + x>>16 }

// lanes sums a 64-bit field's four 16-bit words pairwise into two 32-bit
// lanes. Lanes of fewer than 2^15 fields add without carrying into each
// other, so a run of 64-bit fields folds its lanes once.
func lanes(x uint64) uint64 { return x&0x0000ffff0000ffff + x>>16&0x0000ffff0000ffff }

func fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// Checksum computes the full checksum of the packet header: the RFC 1071
// sum of the 16-bit words of the canonical big-endian layout below, taken
// straight from the fields. The checksum field itself is excluded, as in
// real TCP.
//
//	 0 Src (4)         4 Dst (4)       8 SrcPort (2)  10 DstPort (2)
//	12 Seq (8)        20 Ack (8)
//	28 Flags (1), 0   30 Rwnd (2)     32 WScaleOpt (1), 0
//	34 TSVal (8)      42 TSEcr (8)    50 Payload (4)
//	54 SackOK (1)     55 up to 4 SACK blocks: Start (8), End (8)
//
// Byte 29 stays zero: the ECN codepoint lives in the IP header, which the
// TCP checksum does not cover, so switches may CE-mark in flight without
// invalidating the transport checksum.
func Checksum(p *Packet) uint16 {
	l := lanes(uint64(p.Seq)) + lanes(uint64(p.Ack)) + lanes(uint64(p.TSVal)) + lanes(uint64(p.TSEcr))
	// The SACK blocks start at an odd offset, so a value's bytes fall in
	// the low, high, low, … halves of five words: the same sum as its
	// byte-reversed value taken on word boundaries.
	for i, sb := range p.Sack {
		if i == maxSackBlocks {
			break
		}
		l += lanes(bits.ReverseBytes64(uint64(sb.Start))) + lanes(bits.ReverseBytes64(uint64(sb.End)))
	}
	sum := uint32(l) + uint32(l>>32) +
		w32(uint32(p.Src)) + w32(uint32(p.Dst)) + uint32(p.SrcPort) + uint32(p.DstPort) +
		uint32(p.Flags)<<8 + uint32(p.Rwnd) + uint32(uint8(p.WScaleOpt))<<8 + w32(uint32(p.Payload))
	if p.SackOK {
		sum += 1 << 8
	}
	return ^fold(sum)
}

// SetChecksum stamps the packet with its freshly computed checksum.
func SetChecksum(p *Packet) { p.Checksum = Checksum(p) }

// VerifyChecksum reports whether the stored checksum matches the header.
func VerifyChecksum(p *Packet) bool { return p.Checksum == Checksum(p) }

// UpdateChecksum16 incrementally patches a checksum after a 16-bit header
// field changed from old to new, per RFC 1624 (eqn. 3):
//
//	HC' = ~(~HC + ~m + m')
//
// HWatch uses this when rewriting the rwnd field of in-flight ACKs.
func UpdateChecksum16(sum uint16, old, new uint16) uint16 {
	v := uint32(^sum&0xffff) + uint32(^old&0xffff) + uint32(new)
	return ^fold(v)
}
