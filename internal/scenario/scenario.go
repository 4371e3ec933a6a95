package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hwatch/internal/aqm"
	"hwatch/internal/core"
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
	// or "MIX" when several schemes share the fabric; the testbed uses
	// Label verbatim).
	Label string
	// Guest, when non-nil, replaces every scheme's guest stack with an
	// explicit configuration (the R3 agnosticism studies). Shim
	// deployments still see the scheme's default guest, as a hypervisor
	// module would: it cannot know what stack the tenant boots.
	Guest *tcp.Config
	// ShimOverlay additionally installs HWatch shims on every host over
	// whatever schemes run (the MIX+HWatch extension). Configured from
	// the dumbbell's BaseRTT and ShimTweak.
	ShimOverlay bool

	Dumbbell DumbbellParams
	Testbed  TestbedParams

	// Shards partitions the fabric across that many engine shards running
	// under the conservative-lookahead group (0 = the package default set
	// by SetDefaultShards, itself defaulting to the single-loop engine).
	// Sharding is an execution detail: the digest is byte-identical at any
	// shard count.
	Shards int

	// Faults is a deterministic fault timeline armed on the assembled
	// fabric before traffic starts (empty = fault-free run). A non-empty
	// schedule also switches the deployed shims' degradation fallbacks on
	// (probe-loss pass-through, ECN-dark clamp release) and appends a
	// RecoveryObserver asserting the run heals after the last fault
	// clears. Part of the determinism contract: same seed + spec +
	// schedule ⇒ identical digest.
	Faults faults.Schedule

	// Progress, when non-nil, is invoked periodically during the run (every
	// few thousand fired events) with the simulated clock and the events
	// processed so far. It is an out-of-band observation hook: it cannot
	// schedule work, consumes no event-order state, and therefore never
	// perturbs a digest. Sharded runs call it concurrently from every
	// shard's worker goroutine, so it must be safe for concurrent use.
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
func singleShardOnly(shards int, names ...string) error {
	if shards <= 1 {
		return nil
	}
	for _, name := range names {
		if def, ok := Lookup(name); ok && def.SingleShard {
			return fmt.Errorf("scheme %q deploys shared per-fabric state and only runs single-loop; drop -shards or pick a per-host scheme", name)
		}
	}
	return nil
}

// RunContext executes the spec and returns the measured outcome.
// Cancelling ctx interrupts the event loop within a few thousand events
// and returns ctx.Err() with a nil Run; the check rides the engine's
// out-of-band poll hook, never the event queue, so a cancellable context
// cannot move a digest. (The name is pinned by bench/; it is the only run
// method a Spec has.)
func (s *Spec) RunContext(ctx context.Context) (*Run, error) {
	if ctx == nil {
		ctx = context.Background() //hwatchvet:allow ctxflow nil-ctx compat default: a nil context means the documented never-cancelled run
	}
	switch s.Kind {
	case KindDumbbell:
		return s.runDumbbell(ctx)
	case KindTestbed:
		return s.runTestbed(ctx)
	}
	return nil, fmt.Errorf("unrunnable scenario kind %q", string(s.Kind))
}

// RunDumbbell executes one scheme on the dumbbell under the given
// parameters: the single-scheme shorthand for a Spec.
func RunDumbbell(ctx context.Context, scheme Scheme, p DumbbellParams) (*Run, error) {
	return (&Spec{
		Kind:     KindDumbbell,
		Schemes:  []Share{{Scheme: scheme}},
		Dumbbell: p,
	}).RunContext(ctx)
}

// RunTestbed executes the leaf-spine scenario with or without HWatch
// (the paper's boolean comparison; any registered scheme can run on the
// testbed through a Spec).
func RunTestbed(ctx context.Context, hwatch bool, p TestbedParams) (*Run, error) {
	scheme := DropTail
	if hwatch {
		scheme = HWatch
	}
	return (&Spec{
		Kind:    KindTestbed,
		Schemes: []Share{{Scheme: scheme}},
		Testbed: p,
	}).RunContext(ctx)
}

// materialize binds every scheme in the spec to env and expands the
// share-weighted host pattern (host i runs pattern[i % len(pattern)]).
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

// overlayDeployment is the MIX+HWatch extension's hypervisor overlay: one
// shim per host, configured from the fabric's base RTT independently of
// any tenant's stack.
func overlayDeployment(env Env) Deployment {
	cfg := core.DefaultConfig(env.BaseRTT)
	cfg.MSS = netem.DefaultMSS
	if env.ShimTweak != nil {
		env.ShimTweak(&cfg)
	}
	return func(hosts []*netem.Host) []*core.Shim {
		out := make([]*core.Shim, 0, len(hosts))
		for _, h := range hosts {
			out = append(out, core.Attach(h, cfg))
		}
		return out
	}
}

func (s *Spec) runDumbbell(ctx context.Context) (*Run, error) {
	p := s.Dumbbell
	shards := s.shards()
	rng := sim.NewRNG(p.Seed)
	meanPkt := int64(netem.DefaultMTU) * 8 * sim.Second / p.BottleneckBps
	baseRTT := 4 * p.LinkDelay

	var eng *sim.Engine
	clock := func() int64 {
		if eng == nil {
			return 0
		}
		return eng.Now()
	}
	env := Env{
		BufferPkts:  p.BufferPkts,
		MarkPkts:    int(float64(p.BufferPkts) * p.MarkFrac),
		MeanPktTime: meanPkt,
		BaseRTT:     baseRTT,
		ICW:         p.ICW,
		MinRTO:      p.MinRTO,
		ByteBuffers: p.ByteBuffers,
		Rng:         rng,
		Clock:       clock,
		ShimTweak:   s.hardenShims(p.ShimTweak),
	}
	mats, pattern, err := s.materialize(env)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(mats))
	for i := range mats {
		names[i] = mats[i].Name
	}
	if err := singleShardOnly(shards, names...); err != nil {
		return nil, err
	}
	if s.Guest != nil {
		for i := range mats {
			mats[i].TCPConfig = *s.Guest
		}
	}

	// Edge ports stay deep, as in ns-2; only the bottleneck is the scheme's.
	d := topo.NewDumbbell(topo.DumbbellConfig{
		Senders:       p.LongSources + p.ShortSources,
		EdgeRateBps:   p.EdgeBps,
		BottleneckBps: p.BottleneckBps,
		LinkDelay:     p.LinkDelay,
		BottleneckQ:   mats[0].BottleneckQ,
		EdgeQ:         func() netem.Queue { return aqm.NewDropTail(100000) },
		Shards:        shards,
	})
	// The hub engine owns the bottleneck port: telemetry samples and fault
	// arming stay shard-local there (shard 0 == the hub single-loop).
	eng = d.BottleneckPort.Eng

	hosts := make([]*netem.Host, 0, len(d.Senders)+1)
	hosts = append(hosts, d.Senders...)
	hosts = append(hosts, d.Receiver)

	var shims []*core.Shim
	// A single scheme's shim deployment covers every hypervisor. In a mix,
	// per-scheme deployments are skipped — the hypervisor shim is
	// infrastructure, not per-tenant; use ShimOverlay to watch a mix.
	if len(mats) == 1 && mats[0].Attach != nil {
		shims = mats[0].Attach(hosts)
	}
	if s.ShimOverlay {
		shims = append(shims, overlayDeployment(env)(hosts)...)
	}

	run := &Run{Label: s.displayLabel(mats)}
	idx := map[netem.NodeID]int{}
	for i, h := range d.Senders {
		idx[h.ID] = i
	}
	links := map[string]*netem.Port{
		"bottleneck":  d.BottleneckPort,
		"receiver.up": d.Receiver.Uplink(),
	}
	for i, h := range d.Senders {
		links[fmt.Sprintf("sender%d.up", i)] = h.Uplink()
	}
	rc := &RunContext{
		Eng:       eng,
		Group:     d.Net.Group(),
		Rng:       rng,
		Dumbbell:  d,
		DumbbellP: p,
		ConfigFor: func(h *netem.Host) tcp.Config {
			return mats[pattern[idx[h.ID]%len(pattern)]].TCPConfig
		},
		Bottleneck:     d.Bottleneck,
		BottleneckPort: d.BottleneckPort,
		PortLabel:      "bottleneck",
		LineRateBps:    p.BottleneckBps,
		SampleEvery:    p.SampleEvery,
		Duration:       p.Duration,
		Check:          p.Check,
		Shims:          shims,
		Fabric: faults.Fabric{
			Links:         links,
			DefaultLink:   "bottleneck",
			Switches:      map[string]*netem.Switch{"tor": d.Switch},
			DefaultSwitch: "tor",
			Shims:         shims,
			Hosts:         hosts,
		},
	}
	return s.execute(ctx, rc, run)
}

// hardenShims arms the shim degradation fallbacks whenever a fault
// timeline is staged: a chaos-tested deployment must not clamp on a
// signal path that faults can sever. The spec's own tweak runs last, so
// explicit settings win.
func (s *Spec) hardenShims(base func(*core.Config)) func(*core.Config) {
	if len(s.Faults) == 0 {
		return base
	}
	return func(c *core.Config) {
		c.ProbeLossFallback = true
		if c.EcnDarkEpochs == 0 {
			c.EcnDarkEpochs = 8
		}
		if base != nil {
			base(c)
		}
	}
}

func (s *Spec) runTestbed(ctx context.Context) (*Run, error) {
	if len(s.Schemes) != 1 {
		return nil, fmt.Errorf("testbed scenarios take exactly one scheme, got %d", len(s.Schemes))
	}
	scheme := s.Schemes[0].Scheme
	def, ok := Lookup(string(scheme))
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q: registered schemes are %s",
			string(scheme), strings.Join(Names(), ", "))
	}
	p := s.Testbed
	shards := s.shards()
	if err := singleShardOnly(shards, def.Name); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(p.Seed)
	bufBytes := p.BufferPkts * netem.DefaultMTU
	markPkts := int(float64(p.BufferPkts) * p.MarkFrac)
	kBytes := markPkts * netem.DefaultMTU
	baseRTT := (&topo.LeafSpine{}).BaseRTT(topo.LeafSpineConfig{EdgeDelay: p.LinkDelay, CoreDelay: p.LinkDelay})

	// The paper's testbed ran its shimmed configuration with an aggressive
	// guest RTO; shimless schemes keep the plain-TCP setting.
	minRTO := p.MinRTO
	if def.Shims != nil && p.HWatchMinRTO > 0 {
		minRTO = p.HWatchMinRTO
	}

	var eng *sim.Engine
	clock := func() int64 {
		if eng == nil {
			return 0
		}
		return eng.Now()
	}
	env := Env{
		BufferPkts:  p.BufferPkts,
		MarkPkts:    markPkts,
		MeanPktTime: int64(netem.DefaultMTU) * 8 * sim.Second / p.RateBps,
		BaseRTT:     baseRTT,
		MinRTO:      minRTO,
		ByteBuffers: true, // the testbed's switches account in bytes
		Rng:         rng,
		Clock:       clock,
		// Pace connection admission at the drain rate of the marking
		// threshold: one SYN-ACK per K-bytes drain time, small burst. With
		// ~200 concurrent requests per client this is what spreads the
		// incast over time instead of over the (tiny) buffer.
		ShimTweak: s.hardenShims(func(c *core.Config) {
			c.SynAckBurst = 2
			c.RefillEvery = int64(kBytes) * 8 * sim.Second / p.RateBps
			if p.ShimTweak != nil {
				p.ShimTweak(c)
			}
		}),
	}
	mat, err := Materialize(scheme, env)
	if err != nil {
		return nil, err
	}
	if s.Guest != nil {
		mat.TCPConfig = *s.Guest
	}

	ls := topo.NewLeafSpine(topo.LeafSpineConfig{
		Racks:        p.Racks,
		HostsPerRack: p.HostsPerRack,
		EdgeRateBps:  p.RateBps,
		CoreRateBps:  p.RateBps,
		EdgeDelay:    p.LinkDelay,
		CoreDelay:    p.LinkDelay,
		EdgeQ:        func() netem.Queue { return aqm.NewDropTailBytes(4 * bufBytes) },
		CoreQ:        mat.BottleneckQ,
		Shards:       shards,
	})
	clientRack := p.Racks - 1
	// The hub engine owns the spine's instrumented down port toward the
	// client rack (the spine shard; shard 0 single-loop).
	eng = ls.SpineDown[clientRack].Eng

	var shims []*core.Shim
	if mat.Attach != nil {
		shims = mat.Attach(ls.AllHosts())
	}
	if s.ShimOverlay {
		shims = append(shims, overlayDeployment(env)(ls.AllHosts())...)
	}

	run := &Run{Label: s.Label}
	links := map[string]*netem.Port{"bottleneck": ls.SpineDown[clientRack]}
	for i, sp := range ls.SpineDown {
		links[fmt.Sprintf("spine.down%d", i)] = sp
	}
	rc := &RunContext{
		Eng:            eng,
		Group:          ls.Net.Group(),
		Rng:            rng,
		LeafSpine:      ls,
		TestbedP:       p,
		ConfigFor:      func(*netem.Host) tcp.Config { return mat.TCPConfig },
		Bottleneck:     ls.SpineQ[clientRack],
		BottleneckPort: ls.SpineDown[clientRack],
		PortLabel:      "spine-down",
		LineRateBps:    p.RateBps,
		SampleEvery:    p.SampleEvery,
		Duration:       p.Duration,
		Check:          p.Check,
		Shims:          shims,
		Fabric: faults.Fabric{
			Links:         links,
			DefaultLink:   "bottleneck",
			Switches:      map[string]*netem.Switch{"spine": ls.Spine},
			DefaultSwitch: "spine",
			Shims:         shims,
			Hosts:         ls.AllHosts(),
		},
	}
	return s.execute(ctx, rc, run)
}

// execute wires the workload, starts the observers, runs the engine and
// harvests everything — the one run path every scenario shares. ctx
// cancellation and Progress reporting both ride the engines' out-of-band
// poll hook, so an uninterrupted run is byte-identical to one executed
// with neither.
func (s *Spec) execute(ctx context.Context, rc *RunContext, run *Run) (*Run, error) {
	w := s.Workload
	if w == nil {
		if rc.Dumbbell != nil {
			w = &dumbbellTraffic{}
		} else {
			w = &testbedTraffic{}
		}
	}
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
		rc.Group.RunUntil(rc.horizon())
		run.Events = rc.Group.Processed()
	} else {
		rc.Eng.RunUntil(rc.horizon())
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
