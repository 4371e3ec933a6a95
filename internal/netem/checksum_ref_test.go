package netem

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checksumRef is the serialising oracle for Checksum: write the canonical
// layout into a buffer, then take the one's-complement sum of its 16-bit
// words, the trailing odd byte padded with zero.
func checksumRef(p *Packet) uint16 {
	var b [128]byte
	binary.BigEndian.PutUint32(b[0:], uint32(p.Src))
	binary.BigEndian.PutUint32(b[4:], uint32(p.Dst))
	binary.BigEndian.PutUint16(b[8:], p.SrcPort)
	binary.BigEndian.PutUint16(b[10:], p.DstPort)
	binary.BigEndian.PutUint64(b[12:], uint64(p.Seq))
	binary.BigEndian.PutUint64(b[20:], uint64(p.Ack))
	b[28] = byte(p.Flags)
	binary.BigEndian.PutUint16(b[30:], p.Rwnd)
	b[32] = byte(p.WScaleOpt)
	binary.BigEndian.PutUint64(b[34:], uint64(p.TSVal))
	binary.BigEndian.PutUint64(b[42:], uint64(p.TSEcr))
	binary.BigEndian.PutUint32(b[50:], uint32(p.Payload))
	if p.SackOK {
		b[54] = 1
	}
	n := 55
	for _, sb := range p.Sack {
		binary.BigEndian.PutUint64(b[n:], uint64(sb.Start))
		binary.BigEndian.PutUint64(b[n+8:], uint64(sb.End))
		n += 16
		if n+16 > len(b) {
			break
		}
	}
	var sum uint32
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return ^fold(sum)
}

// randHeader draws every checksummed field over its whole range, negative
// values and absent window scale included, with 0–6 SACK blocks.
func randHeader(rng *rand.Rand) *Packet {
	p := &Packet{
		Src: NodeID(rng.Uint32()), Dst: NodeID(rng.Uint32()),
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
		Seq: int64(rng.Uint64()), Ack: int64(rng.Uint64()),
		Flags: TCPFlags(rng.Uint32()), ECN: ECN(rng.Intn(4)),
		Rwnd: uint16(rng.Uint32()), WScaleOpt: int8(rng.Uint32()),
		TSVal: int64(rng.Uint64()), TSEcr: int64(rng.Uint64()),
		Payload: int(int32(rng.Uint32())), SackOK: rng.Intn(2) == 0,
	}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		p.Sack = append(p.Sack, SackBlock{Start: int64(rng.Uint64()), End: int64(rng.Uint64())})
	}
	if rng.Intn(4) == 0 {
		p.WScaleOpt = -1
	}
	return p
}

// TestChecksumMatchesSerialisingReference: the field-wise sum is the
// serialised one, bit for bit — on the zero packet, on every SACK count up
// to past the four-block cap, and on random headers.
func TestChecksumMatchesSerialisingReference(t *testing.T) {
	check := func(p *Packet) {
		t.Helper()
		if got, want := Checksum(p), checksumRef(p); got != want {
			t.Fatalf("Checksum %#04x, reference %#04x for %+v", got, want, *p)
		}
	}
	check(&Packet{})
	check(&Packet{WScaleOpt: -1, SackOK: true})
	check(samplePacket())
	for n := 0; n <= 6; n++ {
		p := samplePacket()
		for i := 0; i < n; i++ {
			p.Sack = append(p.Sack, SackBlock{Start: -1 - int64(i), End: 1<<62 + int64(i)})
		}
		check(p)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(randHeader(rng))
	}
}
