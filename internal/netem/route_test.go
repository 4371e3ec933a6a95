package netem

import (
	"fmt"
	"math/rand"
	"testing"

	"hwatch/internal/sim"
)

// twoPortSwitch returns a switch with two sink-terminated ports.
func twoPortSwitch() (*sim.Engine, *Switch, [2]*sink) {
	eng := sim.New()
	sw := NewSwitch("sw")
	var sinks [2]*sink
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		p := NewPort(eng, &unboundedQ{}, 1e9, 0)
		p.Connect(sinks[i])
		sw.AddPort(p)
	}
	return eng, sw, sinks
}

// TestSwitchRouteECMPRoundTrip: a destination moves from a unicast route to
// an ECMP group and back, and each install replaces the previous one.
func TestSwitchRouteECMPRoundTrip(t *testing.T) {
	eng, sw, sinks := twoPortSwitch()
	send := func() {
		for i := 0; i < 40; i++ {
			sw.Deliver(&Packet{Src: NodeID(i), Dst: 5, SrcPort: 1000, Wire: 10})
		}
		eng.Run()
	}
	sw.Route(5, 1)
	send()
	if len(sinks[0].pkts) != 0 || len(sinks[1].pkts) != 40 {
		t.Fatalf("unicast: %d/%d packets, want 0/40", len(sinks[0].pkts), len(sinks[1].pkts))
	}
	sw.RouteECMP(5, []int{0, 1})
	send()
	if n0, n1 := len(sinks[0].pkts), len(sinks[1].pkts)-40; n0 == 0 || n1 == 0 {
		t.Fatalf("ECMP after Route did not spread: %d/%d packets", n0, n1)
	}
	before := len(sinks[1].pkts)
	sw.Route(5, 0)
	send()
	if len(sinks[1].pkts) != before {
		t.Fatalf("Route after RouteECMP: port 1 still got %d of 40", len(sinks[1].pkts)-before)
	}
}

// TestSwitchNoRouteMessage: an unrouted destination — beyond the route
// table, inside it but unset, or negative — panics with the same message.
func TestSwitchNoRouteMessage(t *testing.T) {
	_, sw, _ := twoPortSwitch()
	sw.Route(9, 0)
	for _, dst := range []NodeID{3, 42, -1, -1 << 31} {
		func() {
			defer func() {
				want := fmt.Sprintf("netem: sw has no route to host %d", dst)
				if r := recover(); r != want {
					t.Errorf("Deliver to %d: panic %v, want %q", dst, r, want)
				}
			}()
			sw.Deliver(&Packet{Dst: dst})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Route to a negative host accepted")
		}
	}()
	sw.Route(-1, 0)
}

// TestHostRebindReachesNewHandler: after Unbind and a fresh Bind of the
// same ConnID, packets reach the new handler, not the one demux last hit.
func TestHostRebindReachesNewHandler(t *testing.T) {
	n, a, b := newTestNet(t)
	id := ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 4000}
	send := func() {
		a.Send(&Packet{Src: a.ID, Dst: b.ID, SrcPort: 4000, DstPort: 80, Wire: 64})
		n.Eng.Run()
	}
	old, fresh := &recHandler{}, &recHandler{}
	b.Bind(id, old)
	send()
	b.Unbind(id)
	b.Bind(id, fresh)
	send()
	send()
	if len(old.pkts) != 1 || len(fresh.pkts) != 2 || b.Stats().Orphans != 0 {
		t.Fatalf("old handler got %d, new %d, orphans %d; want 1, 2, 0",
			len(old.pkts), len(fresh.pkts), b.Stats().Orphans)
	}
}

// TestConnTableMatchesMap drives the demux table and a Go map through the
// same random binds, unbinds and lookups over a small key space, so probe
// runs collide, wrap and are shifted back by deletes.
func TestConnTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab connTable
	ref := map[ConnID]Handler{}
	hds := make([]Handler, 8)
	for i := range hds {
		hds[i] = &recHandler{}
	}
	for op := 0; op < 200000; op++ {
		id := ConnID{LocalPort: uint16(rng.Intn(3)), Remote: NodeID(rng.Intn(40) - 5), RemotePort: uint16(33000 + rng.Intn(4))}
		switch rng.Intn(3) {
		case 0:
			if ref[id] == nil {
				hd := hds[rng.Intn(len(hds))]
				tab.put(id, hd)
				ref[id] = hd
			}
		case 1:
			tab.del(id)
			delete(ref, id)
		}
		if got := tab.get(id); got != ref[id] {
			t.Fatalf("op %d: get(%+v) = %v, map has %v", op, id, got, ref[id])
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d, map %d", op, tab.n, len(ref))
		}
	}
	for id, hd := range ref {
		if tab.get(id) != hd {
			t.Fatalf("final sweep: %+v lost", id)
		}
	}
}
