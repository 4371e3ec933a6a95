package netem

import (
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		ID: 1, Src: 3, Dst: 9, SrcPort: 33000, DstPort: 80,
		Seq: 14600, Ack: 2920, Flags: FlagACK, ECN: ECT0,
		Payload: 0, Wire: HeaderSize, Rwnd: 1024, WScaleOpt: -1,
		TSVal: 123456, TSEcr: 120000,
	}
}

func TestChecksumExcludesECN(t *testing.T) {
	// The ECN codepoint is IP-level: a switch CE-marking a packet in
	// flight must not invalidate the transport checksum.
	p := samplePacket()
	SetChecksum(p)
	p.ECN = CE
	if !VerifyChecksum(p) {
		t.Fatal("CE marking invalidated the TCP checksum")
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	p := samplePacket()
	SetChecksum(p)
	if !VerifyChecksum(p) {
		t.Fatal("fresh checksum does not verify")
	}
	p.Rwnd++
	if VerifyChecksum(p) {
		t.Fatal("checksum verified after header mutation")
	}
}

// TestChecksumAllocatesNothing holds both checksum paths at zero
// allocations: the full sum runs per packet built, the incremental patch per
// header field a shim rewrites.
func TestChecksumAllocatesNothing(t *testing.T) {
	p := samplePacket()
	if n := testing.AllocsPerRun(1000, func() { p.Checksum = Checksum(p) }); n != 0 {
		t.Errorf("full checksum allocates %v per packet, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.Checksum = UpdateChecksum16(p.Checksum, p.Rwnd, p.Rwnd+1)
		p.Rwnd++
	}); n != 0 {
		t.Errorf("incremental checksum allocates %v per patch, want 0", n)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	base := samplePacket()
	want := Checksum(base)
	mutations := []func(*Packet){
		func(p *Packet) { p.Src++ },
		func(p *Packet) { p.Dst++ },
		func(p *Packet) { p.SrcPort++ },
		func(p *Packet) { p.DstPort++ },
		func(p *Packet) { p.Seq++ },
		func(p *Packet) { p.Ack++ },
		func(p *Packet) { p.Flags |= FlagECE },
		func(p *Packet) { p.Rwnd ^= 0x8000 },
		func(p *Packet) { p.TSVal++ },
		func(p *Packet) { p.Payload++ },
	}
	for i, mut := range mutations {
		p := samplePacket()
		mut(p)
		if Checksum(p) == want {
			t.Errorf("mutation %d did not change checksum", i)
		}
	}
}

// Property: RFC 1624 incremental update after rewriting Rwnd equals a full
// recompute — the exact operation the HWatch shim performs on ACKs.
func TestPropertyIncrementalUpdateMatchesFull(t *testing.T) {
	f := func(src, dst int32, sp, dp, oldW, newW uint16, seq, ack int64) bool {
		p := &Packet{
			Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, Flags: FlagACK, Rwnd: oldW, WScaleOpt: -1,
		}
		SetChecksum(p)
		patched := UpdateChecksum16(p.Checksum, p.Rwnd, newW)
		p.Rwnd = newW
		return patched == Checksum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateChecksum16Chained(t *testing.T) {
	p := samplePacket()
	SetChecksum(p)
	// Two successive rewrites must compose.
	sum := UpdateChecksum16(p.Checksum, p.Rwnd, 500)
	sum = UpdateChecksum16(sum, 500, 7)
	p.Rwnd = 7
	if sum != Checksum(p) {
		t.Fatalf("chained incremental update = %#x, full = %#x", sum, Checksum(p))
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 40000, DstPort: 80}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 80 || r.DstPort != 40000 {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestECNCapable(t *testing.T) {
	if NotECT.Capable() {
		t.Fatal("NotECT reported capable")
	}
	for _, e := range []ECN{ECT0, ECT1, CE} {
		if !e.Capable() {
			t.Fatalf("%v reported not capable", e)
		}
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("String = %q", s)
	}
	if s := TCPFlags(0).String(); s != "-" {
		t.Fatalf("zero flags String = %q", s)
	}
}

func TestPacketClone(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Seq = 999
	if p.Seq == 999 {
		t.Fatal("Clone aliases original")
	}
}
