package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hwatch/internal/aqm"
	"hwatch/internal/core"
	"hwatch/internal/experiments"
	"hwatch/internal/harness"
	"hwatch/internal/netem"
	"hwatch/internal/scenario"
	"hwatch/internal/server"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
	"hwatch/internal/workload"
)

// The layer drivers time direct calls into each layer's public functions
// at fixed operation counts: what one agenda insert, one forwarded packet,
// one shimmed segment costs with nothing else around it. Each driver runs
// driverReps times and keeps the fastest; they run once per traced run,
// after the profiler has stopped.
const driverReps = 5

// driver times ops operations of one layer; fn does them all and returns
// an error when the layer misbehaved.
type driver struct {
	name string
	unit time.Duration // the metric's unit: reported value is time per op in this unit
	ops  int
	fn   func(ops int) error
}

// sink keeps results the drivers compute from being optimised away.
var sink uint64

func bestOf(d driver, reps int) (perOp float64, bytesPerOp float64, err error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		runtime.GC()
		a := readCounters()
		if err := d.fn(d.ops); err != nil {
			return 0, 0, fmt.Errorf("driver %s: %w", d.name, err)
		}
		b := readCounters()
		if dt := b.t.Sub(a.t); i == 0 || dt < best {
			best = dt
			bytesPerOp = float64(b.alloc-a.alloc) / float64(d.ops)
		}
	}
	return float64(best) / float64(d.unit) / float64(d.ops), bytesPerOp, nil
}

func nopArg(any) {}

// scheduleFire inserts n events over a 97-slot spread of delays and fires
// them all: Engine.ScheduleArg + Run.
func scheduleFire(n int) error {
	e := sim.New()
	for j := 0; j < n; j++ {
		e.ScheduleArg(int64(j%97)*sim.Microsecond, nopArg, nil)
	}
	e.Run()
	if e.Processed != uint64(n) {
		return fmt.Errorf("fired %d of %d events", e.Processed, n)
	}
	return nil
}

// scheduleCancel arms and cancels n timers the way a TCP sender re-arms its
// RTO on every ACK, then drains the agenda.
func scheduleCancel(n int) error {
	e := sim.New()
	for j := 0; j < n; j++ {
		e.ScheduleArg(200*sim.Millisecond, nopArg, nil).Cancel()
	}
	e.Run()
	if e.Processed != 0 {
		return fmt.Errorf("%d cancelled events fired", e.Processed)
	}
	return nil
}

// pinger bounces one message between two shards, one hop per window.
type pinger struct {
	eng, peer *sim.Engine
	other     *pinger
	hops      int
}

func (p *pinger) recv(any) {
	p.hops++
	p.eng.ScheduleRemoteArg(p.peer, groupLookahead, p.other.recv, nil)
}

const groupLookahead = 10 * sim.Microsecond

// groupWindows runs n conservative-lookahead windows of a two-shard group
// that carry one cross-shard message each: the cost of a barrier.
func groupWindows(n int) error {
	g := sim.NewGroup(maxProcs, sim.Options{})
	g.SetLookahead(groupLookahead)
	a := &pinger{eng: g.Engine(0), peer: g.Engine(1)}
	b := &pinger{eng: g.Engine(1), peer: g.Engine(0), other: a}
	a.other = b
	a.eng.AtArg(0, a.recv, nil)
	g.RunUntil(int64(n) * groupLookahead)
	if got := a.hops + b.hops; got < n {
		return fmt.Errorf("%d hops in %d windows", got, n)
	}
	return nil
}

type nopHandler struct{}

func (nopHandler) HandlePacket(*netem.Packet) {}

func deepQ() netem.Queue { return aqm.NewDropTail(100000) }

// portForward sends n pooled packets host → switch → host, one at a time:
// alloc, egress, switch hop, serialization, delivery, release.
func portForward(n int) error {
	net := netem.NewNetwork()
	a, b := net.NewHost("a"), net.NewHost("b")
	sw := net.NewSwitch("sw")
	net.LinkHostSwitch(a, sw, deepQ(), deepQ(), 100e9, 0)
	net.LinkHostSwitch(b, sw, deepQ(), deepQ(), 100e9, 0)
	b.Bind(netem.ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 1}, nopHandler{})
	for i := 0; i < n; i++ {
		p := netem.AllocPacket()
		p.Src, p.Dst = a.ID, b.ID
		p.SrcPort, p.DstPort = 1, 80
		p.Wire, p.Payload = netem.DefaultMTU, netem.DefaultMSS
		a.Send(p)
		net.Eng.Run()
	}
	if got := b.Stats().RxPackets; got != int64(n) {
		return fmt.Errorf("delivered %d of %d packets", got, n)
	}
	return nil
}

// checksumIncr is the shim's per-ACK datapath operation: an RFC 1624
// incremental checksum patch for a rewritten receive window.
func checksumIncr(n int) error {
	p := &netem.Packet{ID: 1, Src: 3, Dst: 9, SrcPort: 33000, DstPort: 80, Flags: netem.FlagACK,
		Wire: netem.HeaderSize, Rwnd: 1024, WScaleOpt: -1}
	netem.SetChecksum(p)
	for i := 0; i < n; i++ {
		p.Checksum = netem.UpdateChecksum16(p.Checksum, p.Rwnd, p.Rwnd+1)
		p.Rwnd++
	}
	sink += uint64(p.Checksum)
	if !netem.VerifyChecksum(p) {
		return fmt.Errorf("incremental checksum diverged from the full sum")
	}
	return nil
}

// queueCycle is one Enqueue (and, once 32 deep, one Dequeue) per op on a
// 64-packet discipline, ECT(0) packets.
func queueCycle(mk func() netem.Queue) func(int) error {
	return func(n int) error {
		q := mk()
		pkts := make([]netem.Packet, 64)
		for i := 0; i < n; i++ {
			p := &pkts[i%len(pkts)]
			*p = netem.Packet{Wire: netem.DefaultMTU, ECN: netem.ECT0}
			if q.Enqueue(p) && q.Len() > 32 {
				q.Dequeue()
			}
		}
		sink += uint64(q.Len())
		return nil
	}
}

// rig is two hosts across one switch with the bottleneck toward b, the
// shape the tcp and core packages test on.
type rig struct {
	net  *netem.Network
	a, b *netem.Host
}

func newRig(bottleneck netem.Queue, rateBps, delay int64) *rig {
	n := netem.NewNetwork()
	a, b := n.NewHost("a"), n.NewHost("b")
	sw := n.NewSwitch("sw")
	n.LinkHostSwitch(a, sw, deepQ(), deepQ(), 10*rateBps, delay)
	down := netem.NewPort(n.Eng, bottleneck, rateBps, delay)
	down.Connect(b)
	sw.Route(b.ID, sw.AddPort(down))
	up := netem.NewPort(n.Eng, deepQ(), 10*rateBps, delay)
	up.Connect(sw)
	b.AttachUplink(up)
	return &rig{net: n, a: a, b: b}
}

const (
	rigDelay  = 25 * sim.Microsecond
	rigPort   = 80
	bulkBytes = 1_000_000
	bulkSegs  = (bulkBytes + netem.DefaultMSS - 1) / netem.DefaultMSS
)

// bulk moves 1 MB through the TCP state machine; with shims it crosses an
// HWatch shim on both hosts (probing, stamping, per-ACK rwnd clamping).
// ops counts transfers of bulkSegs segments.
func bulk(shims bool) func(int) error {
	return func(n int) error {
		for i := 0; i < n/bulkSegs; i++ {
			r := newRig(aqm.NewMarkThresholdBytes(250*netem.DefaultMTU, 50*netem.DefaultMTU), 10e9, rigDelay)
			if shims {
				cfg := core.DefaultConfig(4 * rigDelay)
				core.Attach(r.a, cfg)
				core.Attach(r.b, cfg)
			}
			cfg := tcp.DefaultConfig()
			r.b.Listen(rigPort, tcp.NewListener(r.b, cfg, nil))
			s := tcp.NewSender(r.a, r.b.ID, rigPort, bulkBytes, cfg)
			s.Start()
			r.net.Eng.RunUntil(10 * sim.Second)
			if !s.Done() {
				return fmt.Errorf("transfer incomplete")
			}
		}
		return nil
	}
}

// incast runs n 20-flow incast epochs of 10 KB DCTCP flows.
func incast(n int) error {
	for i := 0; i < n; i++ {
		r := newRig(aqm.NewMarkThreshold(250, 50), 10e9, rigDelay)
		cfg := tcp.DCTCPConfig()
		r.b.Listen(rigPort, tcp.NewListener(r.b, cfg, nil))
		done := 0
		for j := 0; j < 20; j++ {
			s := tcp.NewSender(r.a, r.b.ID, rigPort, 10_000, cfg)
			s.OnComplete = func(int64) { done++ }
			s.Start()
		}
		r.net.Eng.RunUntil(10 * sim.Second)
		if done != 20 {
			return fmt.Errorf("%d of 20 incast flows completed", done)
		}
	}
	return nil
}

// flowChurn pushes n one-segment flows, 1 ms apart, through shims on both
// hosts and runs on until every flow row has lingered and expired: the
// flow table's mint → linger → expire cycle.
func flowChurn(n int) error {
	r := newRig(aqm.NewMarkThresholdBytes(250*netem.DefaultMTU, 50*netem.DefaultMTU), 10e9, rigDelay)
	cfg := core.DefaultConfig(4 * rigDelay)
	sa, sb := core.Attach(r.a, cfg), core.Attach(r.b, cfg)
	tcfg := tcp.DefaultConfig()
	r.b.Listen(rigPort, tcp.NewListener(r.b, tcfg, nil))
	done := 0
	for i := 0; i < n; i++ {
		r.net.Eng.At(int64(i)*sim.Millisecond, func() {
			s := tcp.NewSender(r.a, r.b.ID, rigPort, 1000, tcfg)
			s.OnComplete = func(int64) { done++ }
			s.Start()
		})
	}
	r.net.Eng.RunUntil(int64(n)*sim.Millisecond + 10*sim.Second)
	if done != n {
		return fmt.Errorf("%d of %d flows completed", done, n)
	}
	if st := sa.Stats(); st.FlowsExpired < int64(n) || sb.Stats().FlowsExpired < int64(n) {
		return fmt.Errorf("shim expired %d of %d flow rows", st.FlowsExpired, n)
	}
	return nil
}

// planStorm draws the arrival/size/source plan of the storm workload.
func planStorm(n int) error {
	for i := 0; i < n; i++ {
		plan := workload.PlanStorm(workload.StormConfig{
			Port: rigPort, Flows: 3000, Sizes: workload.WebSearch(),
			Start: 10 * sim.Millisecond, Window: 100 * sim.Millisecond, Rng: sim.NewRNG(42),
		}, 120)
		sink += uint64(plan[len(plan)-1].At)
	}
	return nil
}

// driverSpec is the spec service_cold submits, at the committed seed.
var driverSpec = []byte(`{"kind":"dumbbell","scheme":"hwatch","long_sources":5,"short_sources":5,"seed":42,"duration_ms":150,"drain_after_ms":100,"epochs":1}`)

func parseSpec(n int) error {
	for i := 0; i < n; i++ {
		if _, err := scenario.ParseSpec(driverSpec); err != nil {
			return err
		}
	}
	return nil
}

func canonicalDigest(n int) error {
	fs, err := scenario.ParseSpec(driverSpec)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d, err := fs.CanonicalDigest()
		if err != nil {
			return err
		}
		sink += uint64(len(d))
	}
	return nil
}

// mapOverhead is harness.Map over 64 empty tasks at parallel 2: what the
// pool adds to a figure beyond its runs.
func mapOverhead(ctx context.Context) func(int) error {
	return func(n int) error {
		items := make([]int, 64)
		for i := 0; i < n; i++ {
			out, err := harness.Map(ctx, maxProcs, items, func(_ context.Context, v int) (int, error) { return v, nil })
			if err != nil {
				return err
			}
			sink += uint64(len(out))
		}
		return nil
	}
}

// wireDrivers encode and decode a whole figure result — Fig. 8 at scale
// 0.1, four runs with their full series: service_hit's large result — so
// they first run that figure once, untimed.
func wireDrivers(ctx context.Context, ops int) ([]driver, error) {
	runs, err := experiments.FigRuns(ctx, goldenJob.Name, goldenJob.Scale)
	if err != nil {
		return nil, err
	}
	var blob []byte
	encode := func(n int) error {
		for i := 0; i < n; i++ {
			res := server.Result{Kind: "fig", Name: "fig8"}
			for _, r := range runs {
				res.Runs = append(res.Runs, server.WireRun(r))
			}
			if blob, err = json.Marshal(&res); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func(n int) error {
		for i := 0; i < n; i++ {
			var res server.Result
			if err := json.Unmarshal(blob, &res); err != nil {
				return err
			}
			for _, w := range res.Runs {
				if _, err := w.Run(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return []driver{
		{"server.wire_encode_ms", time.Millisecond, ops, encode},
		{"client.wire_decode_ms", time.Millisecond, ops, decode},
	}, nil
}

// runDrivers times every layer driver and returns the metrics by name.
func runDrivers(ctx context.Context, tiny bool) (map[string]float64, error) {
	// Tiny runs only prove that every driver works and reports.
	scale, transfers, reps := func(n int) int { return n }, 4, driverReps
	if tiny {
		scale, transfers, reps = func(n int) int { return n/50 + 1 }, 1, 1
	}
	drivers := []driver{
		{"sim.schedule_fire_ns", time.Nanosecond, scale(200_000), scheduleFire},
		{"sim.schedule_cancel_ns", time.Nanosecond, scale(200_000), scheduleCancel},
		{"sim.group_window_us", time.Microsecond, scale(20_000), groupWindows},
		{"netem.port_forward_ns", time.Nanosecond, scale(50_000), portForward},
		{"netem.checksum_incr_ns", time.Nanosecond, scale(2_000_000), checksumIncr},
		{"aqm.droptail_ns", time.Nanosecond, scale(1_000_000), queueCycle(func() netem.Queue { return aqm.NewDropTail(64) })},
		{"aqm.markthreshold_ns", time.Nanosecond, scale(1_000_000), queueCycle(func() netem.Queue { return aqm.NewMarkThreshold(64, 16) })},
		{"aqm.red_ns", time.Nanosecond, scale(1_000_000), queueCycle(func() netem.Queue {
			now := int64(0)
			cfg := aqm.DefaultRED(64, true, 1200, func() int64 { now += 1200; return now })
			return aqm.NewRED(cfg, sim.NewRNG(1).Float64)
		})},
		{"tcp.bulk_ns_per_seg", time.Nanosecond, transfers * bulkSegs, bulk(false)},
		{"tcp.incast20_us", time.Microsecond, scale(40), incast},
		{"core.shim_transfer_ns_per_seg", time.Nanosecond, transfers * bulkSegs, bulk(true)},
		{"core.flow_churn_ns", time.Nanosecond, scale(2000), flowChurn},
		{"workload.plan_storm_ms", time.Millisecond, scale(20), planStorm},
		{"scenario.parse_spec_us", time.Microsecond, scale(2000), parseSpec},
		{"scenario.canonical_digest_us", time.Microsecond, scale(1000), canonicalDigest},
		{"harness.map_overhead_us", time.Microsecond, scale(200), mapOverhead(ctx)},
	}
	wire, err := wireDrivers(ctx, scale(20))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(drivers)+len(wire)+1)
	for _, d := range append(drivers, wire...) {
		v, bytesPerOp, err := bestOf(d, reps)
		if err != nil {
			return nil, err
		}
		out[d.name] = v
		if d.name == "sim.schedule_fire_ns" {
			out["sim.schedule_fire_bytes"] = bytesPerOp
		}
	}
	return out, nil
}
