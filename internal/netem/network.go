package netem

import (
	"fmt"

	"hwatch/internal/sim"
)

// Network owns the engine(s) plus the hosts and switches of one simulated
// fabric, and provides wiring helpers. Topology builders in internal/topo
// assemble Networks.
//
// A network is either single-loop (the default: one engine, Eng) or
// sharded (NewShardedNetwork: one engine per shard under a sim.Group).
// Every node belongs to exactly one shard; links whose endpoints live on
// different shards deliver through the group's cross-shard send, and the
// minimum cross-shard propagation delay is the group's lookahead bound.
type Network struct {
	// Eng is shard 0's engine — the only engine of a single-loop network,
	// and the coordinator shard of a sharded one.
	Eng      *sim.Engine
	engines  []*sim.Engine
	group    *sim.Group // nil when single-loop
	hosts    map[NodeID]*Host
	switches []*Switch
	swShard  map[*Switch]int
	nextID   NodeID
	// pktIDs is each shard's packet-ID counter. Shard i counts from i<<48,
	// so ID streams stay disjoint without cross-shard coordination (and
	// shard 0 — hence every single-loop run — counts from 0). Fixed
	// length: hosts keep pointers into it.
	pktIDs []uint64
	// free recycles the packets of every shard: the group runs one shard
	// at a time, so one list serves them all.
	free freeList
	// minCross is the smallest cross-shard link delay seen (0 until the
	// first cross-shard link); it becomes the group lookahead.
	minCross int64
}

// NewNetwork returns an empty single-loop network on a fresh engine.
func NewNetwork() *Network { return NewShardedNetwork(1) }

// NewShardedNetwork returns an empty network partitioned into the given
// number of shards. One shard is the plain single-loop configuration —
// same engine type, no group, zero behavior change. Under sim's NoSlab
// default option, the never-reusing oracle, its free list recycles no
// packets either.
func NewShardedNetwork(shards int) *Network {
	if shards < 1 {
		shards = 1
	}
	n := &Network{
		hosts:   make(map[NodeID]*Host),
		swShard: make(map[*Switch]int),
		nextID:  1,
		pktIDs:  make([]uint64, shards),
		free:    freeList{off: sim.DefaultOptions().NoSlab},
	}
	for i := range n.pktIDs {
		n.pktIDs[i] = uint64(i) << 48
	}
	if shards == 1 {
		n.Eng = sim.New()
		n.engines = []*sim.Engine{n.Eng}
		return n
	}
	n.group = sim.NewGroup(shards, sim.DefaultOptions())
	for i := 0; i < shards; i++ {
		n.engines = append(n.engines, n.group.Engine(i))
	}
	n.Eng = n.engines[0]
	return n
}

// Shards returns the shard count (1 for a single-loop network).
func (n *Network) Shards() int { return len(n.engines) }

// Group returns the shard group, nil for a single-loop network.
func (n *Network) Group() *sim.Group { return n.group }

// SealLookahead installs the observed minimum cross-shard delay as the
// group's conservative window width. Topology builders call it once the
// fabric is wired; it panics if a cross-shard link exists with no positive
// delay (the conservative protocol has no safe window then).
func (n *Network) SealLookahead() {
	if n.group == nil {
		return
	}
	if n.minCross > 0 {
		n.group.SetLookahead(n.minCross)
	}
}

// NewHost creates and registers a host with the next free address, on
// shard 0.
func (n *Network) NewHost(name string) *Host { return n.NewHostIn(0, name) }

// NewHostIn creates and registers a host on the given shard.
func (n *Network) NewHostIn(shard int, name string) *Host {
	id := n.nextID
	n.nextID++
	if name == "" {
		name = fmt.Sprintf("h%d", id)
	}
	h := newHost(n.engines[shard], id, name, &n.pktIDs[shard], &n.free)
	n.hosts[id] = h
	return h
}

// NewSwitch creates and registers a switch on shard 0.
func (n *Network) NewSwitch(name string) *Switch { return n.NewSwitchIn(0, name) }

// NewSwitchIn creates and registers a switch on the given shard: all its
// ports will transmit on that shard's engine.
func (n *Network) NewSwitchIn(shard int, name string) *Switch {
	if name == "" {
		name = fmt.Sprintf("sw%d", len(n.switches))
	}
	s := NewSwitch(name)
	n.switches = append(n.switches, s)
	n.swShard[s] = shard
	return s
}

// SwitchEngine returns the engine owning the switch's ports.
func (n *Network) SwitchEngine(s *Switch) *sim.Engine {
	return n.engines[n.swShard[s]]
}

// Host returns the host with the given address.
func (n *Network) Host(id NodeID) *Host { return n.hosts[id] }

// Hosts returns all hosts, indexed by address (callers must not mutate).
func (n *Network) Hosts() map[NodeID]*Host { return n.hosts }

// QueueFactory builds a fresh queue discipline for each port; topology
// builders take one so every output port gets its own buffer.
type QueueFactory func() Queue

// CrossBind binds p to the network's free list, marks p's peer as living
// on dst's shard (no-op when src owns both ends) and folds the link delay
// into the lookahead bound. Topology builders use it for hand-wired ports;
// Link* call it internally. A port never bound releases its dropped
// packets to the GC.
func (n *Network) CrossBind(p *Port, dst *sim.Engine) {
	p.free = &n.free
	if p.Eng == dst {
		return
	}
	if p.Delay <= 0 {
		panic(fmt.Sprintf("netem: cross-shard link %q needs a positive delay", p.Label))
	}
	p.BindRemote(dst)
	if n.minCross == 0 || p.Delay < n.minCross {
		n.minCross = p.Delay
	}
}

// LinkHostSwitch wires host <-> switch full duplex: the host's uplink port
// (queue hq) toward the switch, and a switch port (queue sq) toward the
// host. Each port transmits on its owning node's shard; a shard-crossing
// link delivers through the group's cross-shard send. Returns the
// switch-side port index.
func (n *Network) LinkHostSwitch(h *Host, s *Switch, hq, sq Queue, rateBps, delay int64) int {
	swEng := n.SwitchEngine(s)
	up := NewPort(h.Eng, hq, rateBps, delay)
	up.Label = h.Name + ".up"
	up.Connect(s)
	n.CrossBind(up, swEng)
	h.AttachUplink(up)

	down := NewPort(swEng, sq, rateBps, delay)
	down.Connect(h)
	n.CrossBind(down, h.Eng)
	idx := s.AddPort(down)
	s.Route(h.ID, idx)
	return idx
}

// LinkSwitches wires a <-> b full duplex with per-direction queues.
// Returns (port index on a toward b, port index on b toward a).
func (n *Network) LinkSwitches(a, b *Switch, aq, bq Queue, rateBps, delay int64) (int, int) {
	aEng, bEng := n.SwitchEngine(a), n.SwitchEngine(b)
	ab := NewPort(aEng, aq, rateBps, delay)
	ab.Connect(b)
	n.CrossBind(ab, bEng)
	ai := a.AddPort(ab)

	ba := NewPort(bEng, bq, rateBps, delay)
	ba.Connect(a)
	n.CrossBind(ba, aEng)
	bi := b.AddPort(ba)
	return ai, bi
}
