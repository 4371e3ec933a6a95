package netem

import (
	"testing"

	"hwatch/internal/sim"
)

// TestPacketListsDoNotCrossNetworks pins who may hand out a released
// packet: only the list of the shard it was released on. Another network
// — another run, perhaps another tenant's — never sees it, and neither
// does another shard of the same network until a barrier moves it there,
// with every shard stopped.
func TestPacketListsDoNotCrossNetworks(t *testing.T) {
	a, b := NewShardedNetwork(2), NewNetwork()
	a0, a1, hb := a.NewHostIn(0, "a0"), a.NewHostIn(1, "a1"), b.NewHost("b")
	a.LinkHostSwitch(a0, a.NewSwitchIn(0, "sw"), &unboundedQ{}, &unboundedQ{}, 1e9, 1000)

	released := make(map[*Packet]bool)
	var held []*Packet
	for i := 0; i < 8; i++ {
		held = append(held, a0.AllocPacket())
	}
	for _, p := range held {
		released[p] = true
		a0.ReleasePacket(p)
	}
	// A drop at a port the network linked lands on its shard's list too.
	a0.Uplink().SetDown(true)
	drop := a0.AllocPacket()
	delete(released, drop)
	drop.Wire = 100
	a0.Send(drop)
	released[drop] = true

	for i := 0; i < 2*len(released); i++ {
		if p := hb.AllocPacket(); released[p] {
			t.Fatalf("network b handed out a packet released into network a")
		}
		if p := a1.AllocPacket(); released[p] {
			t.Fatalf("shard 1 handed out a packet released on shard 0")
		}
	}
	for range released {
		if p := a0.AllocPacket(); !released[p] {
			t.Fatalf("shard 0 allocated a fresh packet with %d released ones on its list", len(released))
		}
	}
}

// TestBalanceListsConservesPackets: the barrier hands a shard's surplus to
// the shards short of packets, through the spare list, and loses none.
func TestBalanceListsConservesPackets(t *testing.T) {
	n := NewShardedNetwork(3)
	all := make(map[*Packet]bool)
	for i := 0; i < 3*listKeep; i++ {
		p := new(Packet)
		all[p] = true
		n.shards[0].free.ReleasePacket(p)
	}
	n.shards[1].free.ReleasePacket(n.shards[1].free.AllocPacket())
	n.balanceLists(0)

	got := make(map[*Packet]bool)
	walk := func(l *freeList) (k int) {
		for p := l.head; p != nil; p = p.next {
			got[p] = true
			k++
		}
		if k != l.n {
			t.Errorf("list counts %d packets, links %d", l.n, k)
		}
		return k
	}
	for i := range n.shards {
		if k := walk(&n.shards[i].free); k != listKeep {
			t.Errorf("shard %d keeps %d free packets, want %d", i, k, listKeep)
		}
	}
	walk(&n.spare)
	if len(got) != len(all)+1 {
		t.Fatalf("%d distinct packets after balancing, want %d", len(got), len(all)+1)
	}
}

// TestNoSlabNetworkRecyclesNothing pins the oracle the digest-parity test
// in internal/experiments compares against: a network built under sim's
// NoSlab default keeps no released packet, on any shard.
func TestNoSlabNetworkRecyclesNothing(t *testing.T) {
	defer sim.SetDefaultOptions(sim.DefaultOptions())
	sim.SetDefaultOptions(sim.Options{NoSlab: true})
	n := NewShardedNetwork(2)
	sim.SetDefaultOptions(sim.Options{})
	for i, h := range []*Host{n.NewHostIn(0, "h0"), n.NewHostIn(1, "h1")} {
		p := h.AllocPacket()
		h.ReleasePacket(p)
		if q := h.AllocPacket(); q == p {
			t.Errorf("shard %d handed a released packet out again", i)
		}
	}
	n.balanceLists(0)
	for i := range n.shards {
		if l := &n.shards[i].free; l.n != 0 || l.head != nil {
			t.Errorf("shard %d keeps %d free packets", i, l.n)
		}
	}
	if recycled := NewNetwork(); recycled.shards[0].free.off {
		t.Error("a network built under the default options does not recycle")
	}
}
