package netem

import (
	"reflect"
	"testing"
)

// Fuzz targets double as regression seeds under plain `go test` and can be
// expanded with `go test -fuzz=Fuzz...`.

func FuzzIncrementalChecksum(f *testing.F) {
	f.Add(int32(1), int32(2), uint16(3), uint16(4), int64(5), int64(6), uint16(100), uint16(200))
	f.Add(int32(-1), int32(1<<30), uint16(0), uint16(65535), int64(-9), int64(1<<60), uint16(0), uint16(65535))
	f.Fuzz(func(t *testing.T, src, dst int32, sp, dp uint16, seq, ack int64, oldW, newW uint16) {
		p := &Packet{
			Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, Flags: FlagACK, Rwnd: oldW, WScaleOpt: -1,
		}
		SetChecksum(p)
		patched := UpdateChecksum16(p.Checksum, p.Rwnd, newW)
		p.Rwnd = newW
		if patched != Checksum(p) {
			t.Fatalf("incremental %#x != full %#x", patched, Checksum(p))
		}
	})
}

func FuzzFlowHashStable(f *testing.F) {
	f.Add(int32(1), int32(2), uint16(3), uint16(4))
	f.Fuzz(func(t *testing.T, src, dst int32, sp, dp uint16) {
		k := FlowKey{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp}
		if flowHash(k) != flowHash(k) {
			t.Fatal("hash not deterministic")
		}
	})
}

// FuzzChecksumPatchChain verifies RFC 1624 incremental updates compose: a
// chain of successive rwnd rewrites patched incrementally must land on the
// same checksum as a full recompute — the invariant the shim's repeated
// clamp rewrites depend on — and the full recompute on the serialising
// reference's.
func FuzzChecksumPatchChain(f *testing.F) {
	f.Add(int32(1), int32(2), uint16(3), uint16(4), uint16(100), uint16(200), uint16(300), uint16(0))
	f.Add(int32(-7), int32(1<<28), uint16(65535), uint16(1), uint16(0), uint16(65535), uint16(1), uint16(65534))
	f.Fuzz(func(t *testing.T, src, dst int32, sp, dp, w1, w2, w3, w4 uint16) {
		p := &Packet{
			Src: NodeID(src), Dst: NodeID(dst), SrcPort: sp, DstPort: dp,
			Flags: FlagACK, Rwnd: w1, WScaleOpt: -1,
		}
		SetChecksum(p)
		for _, w := range []uint16{w2, w3, w4, w1} {
			p.Checksum = UpdateChecksum16(p.Checksum, p.Rwnd, w)
			p.Rwnd = w
			if p.Checksum != Checksum(p) {
				t.Fatalf("chained patch %#x != full %#x at rwnd=%d", p.Checksum, Checksum(p), w)
			}
			if ref := checksumRef(p); p.Checksum != ref {
				t.Fatalf("chained patch %#x != serialised reference %#x at rwnd=%d", p.Checksum, ref, w)
			}
			if !VerifyChecksum(p) {
				t.Fatalf("patched packet fails verification at rwnd=%d", w)
			}
		}
	})
}

// FuzzPacketPoolZeroed is the free-list contract's allocation half:
// whatever garbage a released packet carried, the next AllocPacket from a
// network's list must hand out a fully zeroed packet (the model relies on
// zero defaults for every field a sender does not set).
func FuzzPacketPoolZeroed(f *testing.F) {
	f.Add(uint64(9), int32(1), int32(2), int64(3), int64(4), uint16(5), true, 6, 7)
	h := NewNetwork().NewHost("h")
	f.Fuzz(func(t *testing.T, id uint64, src, dst int32, seq, ack int64, rwnd uint16, probe bool, payload, hops int) {
		p := h.AllocPacket()
		p.ID = id
		p.Src, p.Dst = NodeID(src), NodeID(dst)
		p.Seq, p.Ack = seq, ack
		p.Rwnd = rwnd
		p.Probe = probe
		p.Payload = payload
		p.Hops = hops
		p.Sack = append(p.Sack, SackBlock{Start: seq, End: ack})
		h.ReleasePacket(p)
		q := h.AllocPacket()
		if q != p {
			t.Fatal("AllocPacket did not recycle the packet just released")
		}
		if !reflect.DeepEqual(q, &Packet{}) {
			t.Fatalf("AllocPacket returned non-zero packet: %+v", q)
		}
		h.ReleasePacket(q)
	})
}
