package netem

import (
	"testing"

	"hwatch/internal/sim"
)

// sink collects delivered packets with arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []int64
}

func (s *sink) Deliver(p *Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.eng.Now())
}

// unboundedQ is a minimal Queue for port tests.
type unboundedQ struct {
	q     []*Packet
	bytes int
}

func (u *unboundedQ) Enqueue(p *Packet) bool { u.q = append(u.q, p); u.bytes += p.Wire; return true }
func (u *unboundedQ) Dequeue() *Packet {
	if len(u.q) == 0 {
		return nil
	}
	p := u.q[0]
	u.q = u.q[1:]
	u.bytes -= p.Wire
	return p
}
func (u *unboundedQ) Len() int   { return len(u.q) }
func (u *unboundedQ) Bytes() int { return u.bytes }

func TestPortSerializationAndPropagation(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	// 1 Gb/s, 10 us propagation: a 1250-byte packet serializes in 10 us.
	p := NewPort(eng, &unboundedQ{}, 1e9, 10*sim.Microsecond)
	p.Connect(s)
	p.Send(&Packet{Wire: 1250})
	eng.Run()
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.pkts))
	}
	if s.at[0] != 20*sim.Microsecond {
		t.Fatalf("arrival at %d ns, want 20000", s.at[0])
	}
}

func TestPortBackToBackPacing(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	for i := 0; i < 5; i++ {
		p.Send(&Packet{ID: uint64(i), Wire: 1250})
	}
	eng.Run()
	if len(s.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(s.pkts))
	}
	for i, at := range s.at {
		want := int64(i+1) * 10 * sim.Microsecond
		if at != want {
			t.Fatalf("pkt %d at %d, want %d (must be paced at line rate)", i, at, want)
		}
		if s.pkts[i].ID != uint64(i) {
			t.Fatal("reordering on a FIFO port")
		}
	}
	if st := p.Stats(); st.TxPackets != 5 || st.TxBytes != 5*1250 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPortIdleRestart(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	p.Send(&Packet{Wire: 1250})
	eng.Run()
	// Port went idle; a later send must restart the transmitter. The clock
	// is at 10us after the first delivery, so send at 110us, arrive 120us.
	eng.At(110*sim.Microsecond, func() { p.Send(&Packet{Wire: 1250}) })
	eng.Run()
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.pkts))
	}
	if s.at[1] != 120*sim.Microsecond {
		t.Fatalf("second arrival %d, want 120us", s.at[1])
	}
}

func TestSerializationDelayExact(t *testing.T) {
	eng := sim.New()
	p := NewPort(eng, &unboundedQ{}, 10e9, 0) // 10 Gb/s
	if d := p.SerializationDelay(1500); d != 1200 {
		t.Fatalf("1500B at 10G = %d ns, want 1200", d)
	}
	if d := p.SerializationDelay(MinProbeSize); d != 30 {
		t.Fatalf("38B probe at 10G = %d ns, want 30", d)
	}
}

// TestSerializationDelayMemo holds the port's one-entry memo to the plain
// division over a sweep of sizes, each asked again at once, after another
// size, and after RateBps is reassigned between two calls of one size.
func TestSerializationDelayMemo(t *testing.T) {
	p := NewPort(sim.New(), &unboundedQ{}, 10e9, 0)
	for size := 0; size <= 9000; size += 1 + size/7 {
		for _, rate := range []int64{10e9, 1e9, 3, 40e9 + 7, 10e9} {
			p.RateBps = rate
			for _, sz := range []int{size, size, MinProbeSize, size} {
				if got, want := p.SerializationDelay(sz), int64(sz)*8*sim.Second/rate; got != want {
					t.Fatalf("%d B at %d b/s: %d ns, want %d", sz, rate, got, want)
				}
			}
		}
	}
}

func TestUnconnectedPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic sending on unconnected port")
		}
	}()
	NewPort(sim.New(), &unboundedQ{}, 1e9, 0).Send(&Packet{Wire: 100})
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch("sw")
	a, b := &sink{eng: eng}, &sink{eng: eng}
	pa := NewPort(eng, &unboundedQ{}, 1e9, 0)
	pa.Connect(a)
	pb := NewPort(eng, &unboundedQ{}, 1e9, 0)
	pb.Connect(b)
	ia := sw.AddPort(pa)
	ib := sw.AddPort(pb)
	sw.Route(1, ia)
	sw.Route(2, ib)
	sw.Deliver(&Packet{Dst: 2, Wire: 100})
	sw.Deliver(&Packet{Dst: 1, Wire: 100})
	eng.Run()
	if len(a.pkts) != 1 || len(b.pkts) != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", len(a.pkts), len(b.pkts))
	}
	if sw.NumPorts() != 2 {
		t.Fatalf("NumPorts = %d", sw.NumPorts())
	}
}

func TestSwitchNoRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown destination")
		}
	}()
	NewSwitch("sw").Deliver(&Packet{Dst: 42})
}

func TestSwitchHopLimit(t *testing.T) {
	// Two switches routing a destination at each other: must panic, not spin.
	eng := sim.New()
	s1, s2 := NewSwitch("s1"), NewSwitch("s2")
	p12 := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p12.Connect(s2)
	p21 := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p21.Connect(s1)
	s1.Route(7, s1.AddPort(p12))
	s2.Route(7, s2.AddPort(p21))
	s1.Deliver(&Packet{Dst: 7, Wire: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("routing loop not detected")
		}
	}()
	eng.Run()
}

func TestSwitchECMPStablePerFlow(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch("sw")
	sinks := make([]*sink, 3)
	var ports []int
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		p := NewPort(eng, &unboundedQ{}, 1e9, 0)
		p.Connect(sinks[i])
		ports = append(ports, sw.AddPort(p))
	}
	sw.RouteECMP(9, ports)

	// 50 packets of one flow must all take the same member port.
	for i := 0; i < 50; i++ {
		sw.Deliver(&Packet{Src: 1, Dst: 9, SrcPort: 1000, DstPort: 80, Wire: 100})
	}
	eng.Run()
	nonEmpty := 0
	for _, s := range sinks {
		if len(s.pkts) == 50 {
			nonEmpty++
		} else if len(s.pkts) != 0 {
			t.Fatalf("flow split across ports: %d packets on one member", len(s.pkts))
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("flow used %d member ports", nonEmpty)
	}

	// Many distinct flows must spread across the group.
	for f := 0; f < 300; f++ {
		sw.Deliver(&Packet{Src: NodeID(f), Dst: 9, SrcPort: uint16(2000 + f), DstPort: 80, Wire: 100})
	}
	eng.Run()
	for i, s := range sinks {
		if len(s.pkts) < 60 { // ~100 expected per member
			t.Fatalf("member %d underused: %d packets", i, len(s.pkts))
		}
	}
}

func TestSwitchECMPValidation(t *testing.T) {
	sw := NewSwitch("sw")
	defer func() {
		if recover() == nil {
			t.Fatal("empty group accepted")
		}
	}()
	sw.RouteECMP(1, nil)
}

func TestSwitchRouteReplacesGroup(t *testing.T) {
	eng := sim.New()
	sw := NewSwitch("sw")
	a, b := &sink{eng: eng}, &sink{eng: eng}
	pa := NewPort(eng, &unboundedQ{}, 1e9, 0)
	pa.Connect(a)
	pb := NewPort(eng, &unboundedQ{}, 1e9, 0)
	pb.Connect(b)
	ia, ib := sw.AddPort(pa), sw.AddPort(pb)
	sw.RouteECMP(5, []int{ia, ib})
	sw.Route(5, ia) // unicast overrides the group
	for i := 0; i < 20; i++ {
		sw.Deliver(&Packet{Src: NodeID(i), Dst: 5, SrcPort: uint16(i), Wire: 10})
	}
	eng.Run()
	if len(a.pkts) != 20 || len(b.pkts) != 0 {
		t.Fatalf("Route did not replace ECMP group: a=%d b=%d", len(a.pkts), len(b.pkts))
	}
}
