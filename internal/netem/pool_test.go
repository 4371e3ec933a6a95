package netem

import (
	"testing"

	"hwatch/internal/sim"
)

// TestPacketListsDoNotCrossNetworks pins who may hand out a released
// packet: only the network it was released in. Another network — another
// run, perhaps another tenant's — never sees it.
func TestPacketListsDoNotCrossNetworks(t *testing.T) {
	a, b := NewShardedNetwork(2), NewNetwork()
	a0, hb := a.NewHostIn(0, "a0"), b.NewHost("b")
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
	// A drop at a port the network linked lands on its list too.
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
	}
	for range released {
		if p := a0.AllocPacket(); !released[p] {
			t.Fatalf("network a allocated a fresh packet with %d released ones on its list", len(released))
		}
	}
}

// TestShardsShareOneFreeList: on a two-shard network, a packet released
// on either shard is reused by both, and none is lost on the way.
func TestShardsShareOneFreeList(t *testing.T) {
	n := NewShardedNetwork(2)
	hosts := []*Host{n.NewHostIn(0, "h0"), n.NewHostIn(1, "h1")}
	all := make(map[*Packet]bool)
	for rel := range hosts {
		for alloc := range hosts {
			p := hosts[rel].AllocPacket()
			all[p] = true
			hosts[rel].ReleasePacket(p)
			if q := hosts[alloc].AllocPacket(); q != p {
				t.Errorf("shard %d did not reuse the packet shard %d released", alloc, rel)
			}
			hosts[alloc].ReleasePacket(p)
		}
	}
	// Packets from one shard's hands, released across both: every one
	// comes back out, through either shard, before a fresh one does.
	const k = 16
	var held []*Packet
	for i := 0; i < k; i++ {
		held = append(held, hosts[i%2].AllocPacket())
	}
	for i, p := range held {
		all[p] = true
		hosts[(i/2)%2].ReleasePacket(p)
	}
	got := make(map[*Packet]bool)
	for i := 0; i < len(all); i++ {
		got[hosts[i%2].AllocPacket()] = true
	}
	for p := range all {
		if !got[p] {
			t.Fatalf("a released packet never came back: %d of %d reused", len(got), len(all))
		}
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
	if n.free.head != nil {
		t.Error("the network's list keeps a free packet")
	}
	if recycled := NewNetwork(); recycled.free.off {
		t.Error("a network built under the default options does not recycle")
	}
}
