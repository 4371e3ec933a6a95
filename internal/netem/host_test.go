package netem

import (
	"testing"

	"hwatch/internal/sim"
)

// recHandler records packets handed to a guest endpoint. It copies them:
// the host releases a packet to its free list after HandlePacket returns, so
// retaining the pointer would violate the ownership contract.
type recHandler struct{ pkts []*Packet }

func (r *recHandler) HandlePacket(p *Packet) { r.pkts = append(r.pkts, p.Clone()) }

// testFilter applies scripted verdicts.
type testFilter struct {
	name     string
	inV      Verdict
	outV     Verdict
	sawIn    []*Packet
	sawOut   []*Packet
	onInMut  func(*Packet)
	onOutMut func(*Packet)
}

func (f *testFilter) Name() string { return f.name }
func (f *testFilter) Inbound(p *Packet) Verdict {
	f.sawIn = append(f.sawIn, p)
	if f.onInMut != nil {
		f.onInMut(p)
	}
	return f.inV
}
func (f *testFilter) Outbound(p *Packet) Verdict {
	f.sawOut = append(f.sawOut, p)
	if f.onOutMut != nil {
		f.onOutMut(p)
	}
	return f.outV
}

func newTestNet(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("sw")
	n.LinkHostSwitch(a, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
	n.LinkHostSwitch(b, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
	return n, a, b
}

func TestHostEndToEndDelivery(t *testing.T) {
	n, a, b := newTestNet(t)
	h := &recHandler{}
	b.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}, h)
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Wire: 100, Payload: 60})
	n.Eng.Run()
	if len(h.pkts) != 1 {
		t.Fatalf("handler got %d packets, want 1", len(h.pkts))
	}
	if st := b.Stats(); st.RxPackets != 1 || st.Orphans != 0 {
		t.Fatalf("b stats = %+v", st)
	}
}

func TestHostListenerAcceptsSYN(t *testing.T) {
	n, a, b := newTestNet(t)
	var accepted *recHandler
	b.Listen(80, func(syn *Packet) Handler {
		accepted = &recHandler{}
		return accepted
	})
	syn := &Packet{Src: a.ID, Dst: b.ID, SrcPort: 5000, DstPort: 80, Flags: FlagSYN, Wire: HeaderSize}
	a.Send(syn)
	n.Eng.Run()
	if accepted == nil || len(accepted.pkts) != 1 {
		t.Fatal("listener did not accept the SYN")
	}
	// Follow-up segment reaches the same handler via the demux table.
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 5000, DstPort: 80, Flags: FlagACK, Wire: HeaderSize})
	n.Eng.Run()
	if len(accepted.pkts) != 2 {
		t.Fatalf("handler got %d packets, want 2", len(accepted.pkts))
	}
}

func TestHostOrphans(t *testing.T) {
	n, a, b := newTestNet(t)
	// No listener, no binding: data segment is an orphan.
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Flags: FlagACK, Wire: 64})
	// SYN to a non-listening port is also an orphan.
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 3, Flags: FlagSYN, Wire: 64})
	n.Eng.Run()
	if st := b.Stats(); st.Orphans != 2 {
		t.Fatalf("orphans = %d, want 2", st.Orphans)
	}
}

func TestHostProbeNeverReachesGuest(t *testing.T) {
	n, a, b := newTestNet(t)
	h := &recHandler{}
	b.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}, h)
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Probe: true, Wire: MinProbeSize})
	n.Eng.Run()
	if len(h.pkts) != 0 {
		t.Fatal("probe delivered to guest handler")
	}
	if b.Stats().Orphans != 1 {
		t.Fatal("unclaimed probe not accounted")
	}
}

func TestFilterChainOrderAndVerdicts(t *testing.T) {
	n, a, b := newTestNet(t)
	fDrop := &testFilter{name: "drop", inV: VerdictPass, outV: VerdictDrop}
	a.AddFilter(fDrop)
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 2, Wire: 64})
	n.Eng.Run()
	if len(fDrop.sawOut) != 1 {
		t.Fatal("egress filter not invoked")
	}
	if st := a.Stats(); st.FilterDrops != 1 || st.TxPackets != 0 {
		t.Fatalf("a stats = %+v (packet must not hit the wire)", st)
	}
}

func TestFilterStealAndReinject(t *testing.T) {
	n, a, b := newTestNet(t)
	h := &recHandler{}
	b.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}, h)

	var stolen *Packet
	fSteal := &testFilter{name: "steal", inV: VerdictPass, outV: VerdictStolen}
	fSteal.onOutMut = func(p *Packet) { stolen = p }
	a.AddFilter(fSteal)

	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Wire: 100, Payload: 60})
	n.Eng.Run()
	if len(h.pkts) != 0 {
		t.Fatal("stolen packet was delivered")
	}
	// The shim releases it later; InjectOutbound must bypass egress filters.
	n.Eng.Schedule(sim.Millisecond, func() { a.InjectOutbound(stolen) })
	n.Eng.Run()
	if len(h.pkts) != 1 {
		t.Fatal("re-injected packet not delivered")
	}
	if len(fSteal.sawOut) != 1 {
		t.Fatal("InjectOutbound must bypass the egress chain")
	}
}

func TestFilterMutationVisibleDownstream(t *testing.T) {
	n, a, b := newTestNet(t)
	h := &recHandler{}
	b.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}, h)
	// Receiver-side ingress filter rewrites rwnd like HWatch does.
	fRW := &testFilter{name: "rw", inV: VerdictPass, outV: VerdictPass}
	fRW.onInMut = func(p *Packet) { p.Rwnd = 7 }
	b.AddFilter(fRW)
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Wire: 100, Payload: 1, Rwnd: 1000})
	n.Eng.Run()
	if len(h.pkts) != 1 || h.pkts[0].Rwnd != 7 {
		t.Fatal("filter mutation not visible to guest")
	}
}

func TestHostDoubleBindPanics(t *testing.T) {
	_, _, b := newTestNet(t)
	id := ConnID{LocalPort: 80, Remote: 1, RemotePort: 2}
	b.Bind(id, &recHandler{})
	defer func() {
		if recover() == nil {
			t.Fatal("double bind did not panic")
		}
	}()
	b.Bind(id, &recHandler{})
}

func TestHostUnbind(t *testing.T) {
	n, a, b := newTestNet(t)
	id := ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}
	h := &recHandler{}
	b.Bind(id, h)
	b.Unbind(id)
	a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Wire: 64})
	n.Eng.Run()
	if len(h.pkts) != 0 || b.Stats().Orphans != 1 {
		t.Fatal("packet delivered to unbound handler")
	}
}

func TestAllocPortUnique(t *testing.T) {
	_, a, _ := newTestNet(t)
	seen := map[uint16]bool{}
	for i := 0; i < 1000; i++ {
		p := a.AllocPort()
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestNetworkPacketIDsUnique(t *testing.T) {
	n := NewNetwork()
	a, b := n.NewHost(""), n.NewHost("")
	if a.NextPacketID() == 0 {
		t.Fatal("packet IDs must start above 0")
	}
	if a.NextPacketID() == b.NextPacketID() {
		t.Fatal("hosts share the counter; ids must be unique across hosts")
	}
	if a.ID == b.ID {
		t.Fatal("duplicate host IDs")
	}
	if n.Host(a.ID) != a {
		t.Fatal("Host lookup failed")
	}
}
