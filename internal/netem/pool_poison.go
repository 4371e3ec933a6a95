//go:build poolpoison

package netem

// Poison build (-tags poolpoison): released packets are filled with
// sentinel garbage and only zeroed again when reallocated. Any code that
// keeps reading a packet after releasing it now sees nonsense values, so a
// use-after-release shows up as a digest mismatch, an invariant violation
// or a panic instead of a silent read of zeroed memory; a write after
// release breaks the sentinel and panics at the next allocation. CI runs
// the golden digests under this tag.

const poisonID = 0x5a5a5a5a5a5a5a5a

func scrubOnRelease(p *Packet) {
	p.ID = poisonID
	p.Src, p.Dst = -0x5a5a5a5a, -0x5a5a5a5a
	p.SrcPort, p.DstPort = 0x5a5a, 0x5a5a
	p.Seq, p.Ack = -0x5a5a5a5a, -0x5a5a5a5a
	p.Flags = 0x5a
	p.ECN = 0x5a
	p.Payload, p.Wire = -0x5a5a, -0x5a5a
	p.Rwnd = 0x5a5a
	p.WScaleOpt = 0x5a
	p.TSVal, p.TSEcr = -0x5a5a5a5a, -0x5a5a5a5a
	p.SackOK = true
	p.Sack = nil
	p.Checksum = 0x5a5a
	p.Probe = true
	p.SentAt, p.EnqueuedAt = -0x5a5a5a5a, -0x5a5a5a5a
	p.Hops = -0x5a5a
}

func resetOnAlloc(p *Packet) {
	if p.ID != poisonID || p.Hops != -0x5a5a || p.Sack != nil {
		panic("netem: free-list packet written after release")
	}
	*p = Packet{}
}
