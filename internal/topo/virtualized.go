package topo

import (
	"fmt"

	"hwatch/internal/netem"
)

// VirtualizedServer models one physical machine running several guest VMs
// behind a local virtual switch (the paper's OvS): each VM is a netem.Host
// on a fast, short virtual link to the vSwitch, which uplinks to the
// physical fabric. Inter-VM traffic turns around inside the vSwitch;
// a single HWatch shim can attach to all VMs (core.Shim.AttachHost),
// mirroring the patched OvS kernel datapath.
type VirtualizedServer struct {
	VMs     []*netem.Host
	VSwitch *netem.Switch
}

// VirtualizedServerConfig parameterizes one server build.
type VirtualizedServerConfig struct {
	VMs         int
	VNICRate    int64 // VM <-> vSwitch rate (memory-speed; default 40 Gb/s)
	VNICDelay   int64 // ~ vhost queue hop (default 5 us)
	UplinkRate  int64 // vSwitch <-> fabric
	UplinkDelay int64
	VQ          func() netem.Queue // virtual port queues
	UplinkQ     func() netem.Queue
}

// AddVirtualizedServer builds the server inside net and cables its uplink
// into fabric (a physical switch), installing routes for every VM.
// Returns the server; the caller attaches shims and workloads.
func AddVirtualizedServer(net *netem.Network, fabric *netem.Switch, name string, cfg VirtualizedServerConfig) *VirtualizedServer {
	if cfg.VMs <= 0 {
		panic("topo: server needs VMs")
	}
	if cfg.VQ == nil || cfg.UplinkQ == nil {
		panic("topo: server needs queue factories")
	}
	if cfg.VNICRate <= 0 {
		cfg.VNICRate = 40e9
	}
	if cfg.VNICDelay <= 0 {
		cfg.VNICDelay = 5_000 // 5 us
	}
	srv := &VirtualizedServer{VSwitch: net.NewSwitch(name + ".ovs")}

	// Uplink pair: vSwitch port 0 toward the fabric (cross-server default
	// route), and a fabric port back toward the vSwitch.
	up := netem.NewPort(net.Eng, cfg.UplinkQ(), cfg.UplinkRate, cfg.UplinkDelay)
	up.Label = name + ".up"
	up.Connect(fabric)
	net.CrossBind(up, net.Eng)
	srv.VSwitch.AddPort(up)

	down := netem.NewPort(net.Eng, cfg.UplinkQ(), cfg.UplinkRate, cfg.UplinkDelay)
	down.Label = name + ".down"
	down.Connect(srv.VSwitch)
	net.CrossBind(down, net.Eng)
	downIdx := fabric.AddPort(down)

	for i := 0; i < cfg.VMs; i++ {
		vm := net.NewHost(fmt.Sprintf("%s.vm%d", name, i))
		net.LinkHostSwitch(vm, srv.VSwitch, cfg.VQ(), cfg.VQ(), cfg.VNICRate, cfg.VNICDelay)
		srv.VMs = append(srv.VMs, vm)
		fabric.Route(vm.ID, downIdx)
	}
	return srv
}

// RouteRemote installs the vSwitch default route for a remote host: out
// the uplink (port 0).
func (srv *VirtualizedServer) RouteRemote(remote netem.NodeID) {
	srv.VSwitch.Route(remote, 0)
}
