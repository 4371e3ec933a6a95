package netem

import (
	"testing"

	"hwatch/internal/sim"
)

func BenchmarkChecksumFull(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Checksum = Checksum(p)
	}
}

// BenchmarkPortThroughput measures simulator events per transmitted packet
// on a saturated link.
func BenchmarkPortThroughput(b *testing.B) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 100e9, 0)
	p.Connect(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(&Packet{Wire: 1500})
		eng.Run()
	}
}

func BenchmarkHostFilterChain(b *testing.B) {
	n := NewNetwork()
	a := n.NewHost("a")
	bhost := n.NewHost("b")
	sw := n.NewSwitch("sw")
	n.LinkHostSwitch(a, sw, &unboundedQ{}, &unboundedQ{}, 100e9, 0)
	n.LinkHostSwitch(bhost, sw, &unboundedQ{}, &unboundedQ{}, 100e9, 0)
	f := &testFilter{inV: VerdictPass, outV: VerdictPass}
	a.AddFilter(f)
	bhost.AddFilter(f)
	bhost.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 1}, &recHandler{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(&Packet{Src: a.ID, Dst: bhost.ID, SrcPort: 1, DstPort: 80, Wire: 1500, Payload: 1442})
		n.Eng.Run()
	}
}
