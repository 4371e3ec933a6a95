package core

import (
	"fmt"
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// The OvS-style deployment: one shim per physical server, shared by all of
// the server's VMs (Section IV-D of the paper).

// vServer is one physical machine running guest VMs behind a local
// virtual switch (the paper's OvS): each VM is a host on a fast, short
// virtual link to the vSwitch, which uplinks to the physical fabric.
// Inter-VM traffic turns around inside the vSwitch.
type vServer struct {
	VMs     []*netem.Host
	VSwitch *netem.Switch
}

// addServer builds a three-VM server inside n and cables its 1 Gb/s,
// threshold-marking uplink into fabric, routing every VM from the fabric.
func addServer(n *netem.Network, fabric *netem.Switch, name string) *vServer {
	q := func() netem.Queue { return aqm.NewDropTailBytes(250 * 1500) }
	markq := func() netem.Queue { return aqm.NewMarkThresholdBytes(250*1500, 50*1500) }
	const upRate, upDelay = 1e9, 25 * sim.Microsecond
	srv := &vServer{VSwitch: n.NewSwitch(name + ".ovs")}

	// Uplink pair: vSwitch port 0 toward the fabric (the cross-server
	// default route), and a fabric port back toward the vSwitch.
	up := netem.NewPort(n.Eng, markq(), upRate, upDelay)
	up.Label = name + ".up"
	up.Connect(fabric)
	n.CrossBind(up, n.Eng)
	srv.VSwitch.AddPort(up)

	down := netem.NewPort(n.Eng, markq(), upRate, upDelay)
	down.Label = name + ".down"
	down.Connect(srv.VSwitch)
	n.CrossBind(down, n.Eng)
	downIdx := fabric.AddPort(down)

	// Memory-speed virtual NICs, one vhost queue hop each.
	for i := 0; i < 3; i++ {
		vm := n.NewHost(fmt.Sprintf("%s.vm%d", name, i))
		n.LinkHostSwitch(vm, srv.VSwitch, q(), q(), 40e9, 5*sim.Microsecond)
		srv.VMs = append(srv.VMs, vm)
		fabric.Route(vm.ID, downIdx)
	}
	return srv
}

func buildTwoServers(t *testing.T, cfg Config) (*netem.Network, *vServer, *vServer, *Shim, *Shim) {
	t.Helper()
	n := netem.NewNetwork()
	fabric := n.NewSwitch("tor")
	s1 := addServer(n, fabric, "srv1")
	s2 := addServer(n, fabric, "srv2")
	// Cross-server routes at each vSwitch: out the uplink (port 0).
	for _, vm := range s2.VMs {
		s1.VSwitch.Route(vm.ID, 0)
	}
	for _, vm := range s1.VMs {
		s2.VSwitch.Route(vm.ID, 0)
	}

	// One shim per server, attached to every VM (the OvS datapath).
	sh1 := NewShim(n.Eng, cfg, 1)
	for _, vm := range s1.VMs {
		sh1.AttachHost(vm)
	}
	sh2 := NewShim(n.Eng, cfg, 2)
	for _, vm := range s2.VMs {
		sh2.AttachHost(vm)
	}
	return n, s1, s2, sh1, sh2
}

func TestOvSShimCrossServerFlows(t *testing.T) {
	cfg := DefaultConfig(120 * sim.Microsecond)
	n, s1, s2, sh1, sh2 := buildTwoServers(t, cfg)
	tcfg := tcp.DefaultConfig()
	for _, vm := range s2.VMs {
		vm.Listen(port, tcp.NewListener(vm, tcfg, nil))
	}
	done := 0
	for i, vm := range s1.VMs {
		s := tcp.NewSender(vm, s2.VMs[i].ID, port, 50_000, tcfg)
		s.OnComplete = func(int64) { done++ }
		s.Start()
	}
	n.Eng.RunUntil(5 * sim.Second)
	if done != 3 {
		t.Fatalf("cross-server flows done %d/3", done)
	}
	// The *server* shims saw all three flows each, with shared tables.
	if sh1.TrackedFlows() != 0 && sh1.Stats().FlowsTracked != 3 {
		t.Fatalf("srv1 shim tracked %d flows", sh1.Stats().FlowsTracked)
	}
	if sh2.Stats().ProbesSeen != 3*int64(cfg.ProbeCount) {
		t.Fatalf("srv2 shim saw %d probes, want %d", sh2.Stats().ProbesSeen, 3*cfg.ProbeCount)
	}
	if sh1.Hosts() != 3 || sh2.Hosts() != 3 {
		t.Fatal("attachment counts wrong")
	}
}

func TestOvSShimIntraServerFlow(t *testing.T) {
	// VM0 -> VM1 on the same server: traffic turns around at the vSwitch;
	// the shared shim sees both the sender and receiver sides of the SAME
	// flow in one table (roles must not collide).
	cfg := DefaultConfig(120 * sim.Microsecond)
	n, s1, _, sh1, _ := buildTwoServers(t, cfg)
	tcfg := tcp.DefaultConfig()
	s1.VMs[1].Listen(port, tcp.NewListener(s1.VMs[1], tcfg, nil))
	done := false
	s := tcp.NewSender(s1.VMs[0], s1.VMs[1].ID, port, 100_000, tcfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	n.Eng.RunUntil(5 * sim.Second)
	if !done {
		t.Fatalf("intra-server flow incomplete: %v", s)
	}
	st := sh1.Stats()
	// One flow, one probe train, consumed by the same shim's receiver side.
	if st.ProbesSent != int64(cfg.ProbeCount) || st.ProbesSeen != int64(cfg.ProbeCount) {
		t.Fatalf("intra-server probing broken: %+v", st)
	}
	if st.SynAcksStamped != 1 {
		t.Fatalf("SYN-ACK not stamped intra-server: %+v", st)
	}
}

func TestOvSSharedPacerAcrossVMs(t *testing.T) {
	// Connections to different VMs of one server share the server's
	// SYN-ACK token bucket: a burst across VMs must be paced.
	cfg := DefaultConfig(120 * sim.Microsecond)
	cfg.SynAckBurst = 1
	cfg.RefillEvery = 500 * sim.Microsecond
	n, s1, s2, _, sh2 := buildTwoServers(t, cfg)
	tcfg := tcp.DefaultConfig()
	for _, vm := range s2.VMs {
		vm.Listen(port, tcp.NewListener(vm, tcfg, nil))
	}
	done := 0
	for i := 0; i < 3; i++ {
		s := tcp.NewSender(s1.VMs[i], s2.VMs[i].ID, port, 10_000, tcfg)
		s.OnComplete = func(int64) { done++ }
		s.Start()
	}
	n.Eng.RunUntil(5 * sim.Second)
	if done != 3 {
		t.Fatalf("done %d/3", done)
	}
	if sh2.Stats().SynAcksPaced == 0 {
		t.Fatal("per-server pacer not shared across VMs")
	}
}
