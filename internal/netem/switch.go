package netem

import "fmt"

// Switch is an output-queued store-and-forward switch. Each output port has
// its own queue discipline (where ECN marking and drops happen), matching
// the shared-nothing per-port buffers of commodity ToR switches the paper
// assumes. Destinations may be routed to a single port or to an ECMP group
// of ports, in which case the port is chosen by a hash of the flow's
// 4-tuple — per-flow stable, so no reordering within a connection.
type Switch struct {
	Name  string
	ports []*Port
	// routes is the output port by destination NodeID, -1 for none: one
	// bounds check per hop instead of a map hash. ECMP destinations have
	// -1 here and their member ports in groups.
	routes []int32
	groups map[NodeID][]int

	// MaxHops guards against routing loops in misbuilt topologies.
	MaxHops int
}

// NewSwitch returns an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{
		Name:    name,
		groups:  make(map[NodeID][]int),
		MaxHops: 16,
	}
}

// AddPort attaches an output port and returns its index.
func (s *Switch) AddPort(p *Port) int {
	if p.Label == "" {
		p.Label = fmt.Sprintf("%s.p%d", s.Name, len(s.ports))
	}
	s.ports = append(s.ports, p)
	return len(s.ports) - 1
}

// Port returns the output port at index i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// SetStripECN turns the whole switch into a legacy non-ECN hop (or back):
// every output port erases CE/ECT codepoints before its AQM, so marking
// degrades to dropping fabric-wide. The fault injector's ECN blackhole.
func (s *Switch) SetStripECN(on bool) {
	for _, p := range s.ports {
		p.SetStripECN(on)
	}
}

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Route installs "destination host -> output port index".
func (s *Switch) Route(dst NodeID, port int) {
	if port < 0 || port >= len(s.ports) || dst < 0 {
		panic(fmt.Sprintf("netem: %s route to %d via invalid port %d", s.Name, dst, port))
	}
	for int(dst) >= len(s.routes) {
		s.routes = append(s.routes, -1)
	}
	s.routes[dst] = int32(port)
	delete(s.groups, dst)
}

// RouteECMP installs an equal-cost group for the destination: each flow
// hashes onto one member port and sticks to it.
func (s *Switch) RouteECMP(dst NodeID, ports []int) {
	if len(ports) == 0 {
		panic(fmt.Sprintf("netem: %s empty ECMP group for %d", s.Name, dst))
	}
	for _, p := range ports {
		if p < 0 || p >= len(s.ports) {
			panic(fmt.Sprintf("netem: %s ECMP member %d invalid", s.Name, p))
		}
	}
	s.groups[dst] = append([]int(nil), ports...)
	if uint(dst) < uint(len(s.routes)) {
		s.routes[dst] = -1
	}
}

// flowHash is a small FNV-1a over the 4-tuple, matching how switch ASICs
// spread flows across a LAG/ECMP group.
func flowHash(k FlowKey) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(uint32(k.Src))
	mix(uint32(k.Dst))
	mix(uint32(k.SrcPort)<<16 | uint32(k.DstPort))
	return h
}

// Deliver forwards the packet toward its destination. Unknown destinations
// and hop-limit violations are model bugs and panic.
func (s *Switch) Deliver(pkt *Packet) {
	pkt.Hops++
	if pkt.Hops > s.MaxHops {
		panic(fmt.Sprintf("netem: %s hop limit exceeded for %s (routing loop?)", s.Name, pkt))
	}
	if d := uint(pkt.Dst); d < uint(len(s.routes)) && s.routes[d] >= 0 {
		s.ports[s.routes[d]].Send(pkt)
		return
	}
	if group, ok := s.groups[pkt.Dst]; ok {
		idx := group[flowHash(pkt.FlowKey())%uint32(len(group))]
		s.ports[idx].Send(pkt)
		return
	}
	panic(fmt.Sprintf("netem: %s has no route to host %d", s.Name, pkt.Dst))
}
