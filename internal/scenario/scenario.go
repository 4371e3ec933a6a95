package scenario

import (
	"context"
	"fmt"
	"time"

	"hwatch/internal/aqm"
	"hwatch/internal/faults"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
	"hwatch/internal/topo"
)

// Kind selects a scenario topology.
type Kind string

const (
	// KindDumbbell is the ns-2 dumbbell (Figs. 1, 2, 8, 9).
	KindDumbbell Kind = "dumbbell"
	// KindTestbed is the 4-rack leaf-spine testbed (Fig. 11).
	KindTestbed Kind = "testbed"
)

// Share assigns a scheme a relative weight in a mixed-tenancy scenario:
// sender hosts cycle through the expanded scheme pattern (a Share of 2
// puts the scheme on twice as many hosts as a Share of 1; <= 0 counts
// as 1). Fig. 2's MIX is three schemes with equal shares.
type Share struct {
	Scheme Scheme
	Share  int
}

// Spec declaratively describes one runnable scenario: a topology kind,
// one or more schemes (more than one = mixed tenancy), the workload and
// any extra observers. It is the single Run path behind every experiment,
// figure, CLI and JSON file.
type Spec struct {
	Kind Kind
	// Schemes lists the scheme(s) sharing the fabric. Exactly one for the
	// testbed; one or more for the dumbbell.
	Schemes []Share
	// Label overrides the run's display label ("" = the scheme's label,
	// or "MIX" when several schemes share the fabric).
	Label string
	// Guest, when non-nil, replaces every scheme's guest stack with an
	// explicit configuration (the R3 agnosticism studies). Shim
	// deployments still see the scheme's default guest, as a hypervisor
	// module would: it cannot know what stack the tenant boots.
	Guest *tcp.Config
	// Shim overrides the HWatch shim settings of every deployment the run
	// installs, scheme and overlay alike (the ablation studies).
	Shim ShimParams
	// ShimOverlay additionally installs HWatch shims on every host over
	// whatever schemes run (the MIX+HWatch extension). They are
	// configured as a scheme's shims are, against the stock guest stack.
	ShimOverlay bool

	Dumbbell DumbbellParams
	Testbed  TestbedParams

	// Faults is a deterministic fault timeline armed on the assembled
	// fabric before traffic starts (empty = fault-free run). A non-empty
	// schedule also switches the deployed shims' degradation fallbacks on
	// (probe-loss pass-through, ECN-dark clamp release) and appends a
	// RecoveryObserver asserting the run heals after the last fault
	// clears. Part of the determinism contract: same seed + spec +
	// schedule ⇒ identical digest.
	Faults faults.Schedule

	// Shards, Check and Progress are execution settings, not scenario:
	// none of them moves a digest or a canonical form.
	//
	// Shards partitions the fabric across that many engine shards running
	// under the conservative-lookahead group (0 = the package default set
	// by SetDefaultShards, itself defaulting to the single-loop engine).
	// Sharding is an execution detail: the digest is byte-identical at any
	// shard count.
	Shards int
	// Check arms the physical-invariant checker for this run (packet
	// conservation at the bottleneck, sequence monotonicity, window
	// floors); findings land in Run.InvariantViolations. SetInvariantChecks
	// turns it on for every run.
	Check bool

	// Progress, when non-nil, is invoked periodically during the run (every
	// few thousand fired events) with the simulated clock and the events
	// processed so far. It is an out-of-band observation hook: it cannot
	// schedule work, consumes no event-order state, and therefore never
	// perturbs a digest. Sharded runs call it from each shard in turn,
	// with that shard's clock and count, on the goroutine running the
	// spec.
	Progress func(simNow int64, processed uint64)

	// Workload overrides the kind's default traffic (nil = dumbbell
	// long-lived + incast, testbed iperf + web).
	Workload Workload
	// Observers are appended after the built-in telemetry, invariant and
	// shim-stats observers. Instances are per-run: do not share stateful
	// observers across concurrent Run calls.
	Observers []Observer
}

// shards resolves the spec's effective shard count: an explicit
// Spec.Shards wins, else the package default.
func (s *Spec) shards() int {
	n := s.Shards
	if n == 0 {
		n = DefaultShards()
	}
	if n < 1 {
		n = 1
	}
	return n
}

// singleShardOnly rejects scheme deployments that cannot span shards (a
// shared OvS-style shim serves hosts of every shard from one engine).
func singleShardOnly(shards int, mats []Materialized) error {
	if shards <= 1 {
		return nil
	}
	for _, m := range mats {
		if def, ok := Lookup(m.Name); ok && def.SingleShard {
			return fmt.Errorf("scheme %q deploys shared per-fabric state and only runs single-loop; drop -shards or pick a per-host scheme", m.Name)
		}
	}
	return nil
}

// RunContext executes the spec and returns the measured outcome. It is the
// one run path every scenario shares: a single switch on the kind binds
// the fabric quantities the schemes see and picks the builder that
// assembles the topology; everything else is kind-blind. Cancelling ctx
// interrupts the event loop within a few thousand events and returns
// ctx.Err() with a nil Run; cancellation and Progress reporting both ride
// the engines' out-of-band poll hook, never the event queue, so neither
// can move a digest. (The name is pinned by bench/; it is the only run
// method a Spec has.)
func (s *Spec) RunContext(ctx context.Context) (*Run, error) {
	if ctx == nil {
		ctx = context.Background() //hwatchvet:allow ctxflow nil-ctx compat default: a nil context means the documented never-cancelled run
	}
	rc := &RunContext{Check: s.Check}
	w := s.Workload
	var (
		env   Env
		seed  int64
		build func(rc *RunContext, q func() netem.Queue, shards int) (hosts, senders []*netem.Host)
	)
	switch s.Kind {
	case KindDumbbell:
		p := s.Dumbbell
		rc.DumbbellP, seed, build = p, p.Seed, buildDumbbell
		env = Env{
			BufferPkts:  p.BufferPkts,
			MarkPkts:    int(float64(p.BufferPkts) * p.MarkFrac),
			MeanPktTime: int64(netem.DefaultMTU) * 8 * sim.Second / p.BottleneckBps,
			BaseRTT:     4 * p.LinkDelay,
			ICW:         p.ICW,
			MinRTO:      p.MinRTO,
			ByteBuffers: p.ByteBuffers,
		}
		if w == nil {
			w = &dumbbellTraffic{}
		}
	case KindTestbed:
		if len(s.Schemes) != 1 {
			return nil, fmt.Errorf("testbed scenarios take exactly one scheme, got %d", len(s.Schemes))
		}
		p := s.Testbed
		rc.TestbedP, seed, build = p, p.Seed, buildTestbed
		env = Env{
			BufferPkts:  p.BufferPkts,
			MarkPkts:    int(float64(p.BufferPkts) * p.MarkFrac),
			MeanPktTime: int64(netem.DefaultMTU) * 8 * sim.Second / p.RateBps,
			BaseRTT:     (&topo.LeafSpine{}).BaseRTT(topo.LeafSpineConfig{EdgeDelay: p.LinkDelay, CoreDelay: p.LinkDelay}),
			MinRTO:      p.MinRTO,
			ByteBuffers: true, // the testbed's switches account in bytes
			FabricShim:  testbedPacing(p),
		}
		// The paper's testbed ran its shimmed configuration with an
		// aggressive guest RTO; shimless schemes keep the plain-TCP setting.
		if def, ok := Lookup(string(s.Schemes[0].Scheme)); ok && def.Shims != nil && p.HWatchMinRTO > 0 {
			env.MinRTO = p.HWatchMinRTO
		}
		if w == nil {
			w = &testbedTraffic{}
		}
	default:
		return nil, fmt.Errorf("unrunnable scenario kind %q", string(s.Kind))
	}

	shards := s.shards()
	rc.Rng = sim.NewRNG(seed)
	env.Rng = rc.Rng
	env.Clock = func() int64 { // the queues may read it before the fabric exists
		if rc.Eng == nil {
			return 0
		}
		return rc.Eng.Now()
	}
	env.Hardened = len(s.Faults) > 0
	env.Shim = s.Shim
	mats, pattern, err := s.materialize(env)
	if err != nil {
		return nil, err
	}
	if err := singleShardOnly(shards, mats); err != nil {
		return nil, err
	}

	hosts, senders := build(rc, mats[0].BottleneckQ, shards)
	// A single scheme's shim deployment covers every hypervisor. In a mix,
	// per-scheme deployments are skipped — the hypervisor shim is
	// infrastructure, not per-tenant; use ShimOverlay to watch a mix.
	if len(mats) == 1 && mats[0].Attach != nil {
		rc.Shims = mats[0].Attach(hosts)
	}
	if s.ShimOverlay {
		rc.Shims = append(rc.Shims, perHostShims(env, tcp.DefaultConfig())(hosts)...)
	}
	rc.Fabric.Shims, rc.Fabric.Hosts = rc.Shims, hosts
	// One scheme configures every host; a mix cycles its share pattern
	// over the senders.
	rc.ConfigFor = func(*netem.Host) tcp.Config { return mats[0].TCPConfig }
	if len(mats) > 1 {
		idx := make(map[netem.NodeID]int, len(senders))
		for i, h := range senders {
			idx[h.ID] = i
		}
		rc.ConfigFor = func(h *netem.Host) tcp.Config {
			return mats[pattern[idx[h.ID]%len(pattern)]].TCPConfig
		}
	}
	run := &Run{Label: s.displayLabel(mats)}

	obs := []Observer{&telemetryObserver{}, &invariantObserver{}, shimStatsObserver{}}
	if len(s.Faults) > 0 {
		// Arm the fault timeline before the workload wires (a fixed point
		// in the RNG fork order, so schedules stay deterministic), and hold
		// the run to the recovery invariants afterwards.
		inj, err := faults.Arm(rc.Eng, rc.Rng, s.Faults, rc.Fabric)
		if err != nil {
			return nil, fmt.Errorf("arming fault schedule: %w", err)
		}
		rc.Injector = inj
		obs = append(obs, RecoveryObserver{}, chaosStatsObserver{})
	}
	obs = append(obs, s.Observers...)

	w.Wire(rc, run)
	for _, o := range obs {
		o.Start(rc, run)
	}

	cancellable := ctx.Done() != nil
	if cancellable || s.Progress != nil {
		progress := s.Progress
		poll := func(now int64, processed uint64) bool {
			if progress != nil {
				progress(now, processed)
			}
			return cancellable && ctx.Err() != nil
		}
		if rc.Group != nil {
			rc.Group.SetPoll(poll)
		} else {
			rc.Eng.SetPoll(poll)
		}
	}

	start := time.Now() //hwatchvet:allow detrand WallNs is an operator-facing speed metric, excluded from digests
	if rc.Group != nil {
		rc.Group.RunUntil(rc.Horizon)
		run.Events = rc.Group.Processed()
	} else {
		rc.Eng.RunUntil(rc.Horizon)
		run.Events = rc.Eng.Processed
	}
	run.WallNs = time.Since(start).Nanoseconds() //hwatchvet:allow detrand WallNs is an operator-facing speed metric, excluded from digests

	if cancellable {
		if err := ctx.Err(); err != nil {
			// The run was interrupted mid-flight: its partial measurements
			// are meaningless and the workload/observer Finish paths assume
			// a drained fabric, so drop the run entirely.
			return nil, err
		}
	}

	w.Finish(rc, run)
	for _, o := range obs {
		o.Finish(rc, run)
	}
	return run, nil
}

// materialize binds every scheme in the spec to env and expands the
// share-weighted host pattern (host i runs pattern[i % len(pattern)]).
// An explicit Spec.Guest replaces each scheme's guest stack only after
// its shims were configured from the scheme's own.
func (s *Spec) materialize(env Env) ([]Materialized, []int, error) {
	if len(s.Schemes) == 0 {
		return nil, nil, fmt.Errorf("scenario spec names no schemes")
	}
	mats := make([]Materialized, 0, len(s.Schemes))
	var pattern []int
	for i, sh := range s.Schemes {
		m, err := Materialize(sh.Scheme, env)
		if err != nil {
			return nil, nil, err
		}
		if s.Guest != nil {
			m.TCPConfig = *s.Guest
		}
		mats = append(mats, m)
		n := sh.Share
		if n <= 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			pattern = append(pattern, i)
		}
	}
	return mats, pattern, nil
}

func (s *Spec) displayLabel(mats []Materialized) string {
	if s.Label != "" {
		return s.Label
	}
	if len(mats) > 1 {
		return "MIX"
	}
	return mats[0].Label
}

// buildDumbbell assembles the ns-2 dumbbell around the scheme's
// bottleneck queue; edge ports stay deep, as in ns-2. The hosts come
// senders first, then the receiver, and the share pattern cycles over the
// senders.
func buildDumbbell(rc *RunContext, q func() netem.Queue, shards int) (hosts, senders []*netem.Host) {
	p := rc.DumbbellP
	d := topo.NewDumbbell(topo.DumbbellConfig{
		Senders:       p.LongSources + p.ShortSources,
		EdgeRateBps:   p.EdgeBps,
		BottleneckBps: p.BottleneckBps,
		LinkDelay:     p.LinkDelay,
		BottleneckQ:   q,
		EdgeQ:         func() netem.Queue { return aqm.NewDropTail(100000) },
		Shards:        shards,
	})
	// The hub engine owns the bottleneck port: telemetry samples and fault
	// arming stay shard-local there (shard 0 == the hub single-loop).
	rc.Dumbbell, rc.Eng, rc.Group = d, d.BottleneckPort.Eng, d.Net.Group()
	rc.Bottleneck, rc.BottleneckPort = d.Bottleneck, d.BottleneckPort
	rc.PortLabel, rc.LineRateBps = "bottleneck", p.BottleneckBps
	rc.SampleEvery, rc.Duration, rc.Horizon = p.SampleEvery, p.Duration, p.Duration+p.DrainAfter
	links := map[string]*netem.Port{
		"bottleneck":  d.BottleneckPort,
		"receiver.up": d.Receiver.Uplink(),
	}
	for i, h := range d.Senders {
		links[fmt.Sprintf("sender%d.up", i)] = h.Uplink()
	}
	rc.Fabric = faults.Fabric{
		Links:         links,
		DefaultLink:   "bottleneck",
		Switches:      map[string]*netem.Switch{"tor": d.Switch},
		DefaultSwitch: "tor",
	}
	hosts = make([]*netem.Host, 0, len(d.Senders)+1)
	return append(append(hosts, d.Senders...), d.Receiver), d.Senders
}

// buildTestbed assembles the leaf-spine testbed with the scheme's queue on
// the spine ports; the bottleneck is the spine's down port toward the
// client rack. The hosts come rack by rack; a testbed runs one scheme, so
// no share pattern cycles over them.
func buildTestbed(rc *RunContext, q func() netem.Queue, shards int) (hosts, senders []*netem.Host) {
	p := rc.TestbedP
	edgeBytes := 4 * p.BufferPkts * netem.DefaultMTU
	ls := topo.NewLeafSpine(topo.LeafSpineConfig{
		Racks:        p.Racks,
		HostsPerRack: p.HostsPerRack,
		EdgeRateBps:  p.RateBps,
		CoreRateBps:  p.RateBps,
		EdgeDelay:    p.LinkDelay,
		CoreDelay:    p.LinkDelay,
		EdgeQ:        func() netem.Queue { return aqm.NewDropTailBytes(edgeBytes) },
		CoreQ:        q,
		Shards:       shards,
	})
	clientRack := p.Racks - 1
	// The hub engine owns the spine's instrumented down port toward the
	// client rack (the spine shard; shard 0 single-loop).
	down := ls.SpineDown[clientRack]
	rc.LeafSpine, rc.Eng, rc.Group = ls, down.Eng, ls.Net.Group()
	rc.Bottleneck, rc.BottleneckPort = ls.SpineQ[clientRack], down
	rc.PortLabel, rc.LineRateBps = "spine-down", p.RateBps
	rc.SampleEvery, rc.Duration, rc.Horizon = p.SampleEvery, p.Duration, p.Duration
	links := map[string]*netem.Port{"bottleneck": down}
	for i, sp := range ls.SpineDown {
		links[fmt.Sprintf("spine.down%d", i)] = sp
	}
	rc.Fabric = faults.Fabric{
		Links:         links,
		DefaultLink:   "bottleneck",
		Switches:      map[string]*netem.Switch{"spine": ls.Spine},
		DefaultSwitch: "spine",
	}
	return ls.AllHosts(), nil
}

// testbedPacing paces connection admission at the drain rate of the
// testbed's marking threshold: one SYN-ACK per K-bytes drain time, small
// burst. With ~200 concurrent requests per client this is what spreads
// the incast over time instead of over the (tiny) buffer.
func testbedPacing(p TestbedParams) ShimParams {
	burst := 2
	kBytes := int(float64(p.BufferPkts)*p.MarkFrac) * netem.DefaultMTU
	refill := int64(kBytes) * 8 * sim.Second / p.RateBps
	return ShimParams{SynAckBurst: &burst, RefillEvery: &refill}
}
