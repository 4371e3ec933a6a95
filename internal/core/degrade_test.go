package core

import (
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
)

// TestShimCrashAndRestart models the hypervisor module dying mid-connection
// (the implementation paper's reload hazard): the flow table is wiped,
// in-flight transfers complete untouched, and a restarted shim processes
// new connections from a cold table.
func TestShimCrashAndRestart(t *testing.T) {
	delay := 25 * sim.Microsecond
	cfg := DefaultConfig(testRTT(delay))
	r := newRig(t, aqm.NewDropTail(1000), 1e9, delay, cfg)
	tcfg := tcp.DefaultConfig()
	r.b.Listen(port, tcp.NewListener(r.b, tcfg, nil))

	done := make([]bool, 2)
	s1 := tcp.NewSender(r.a, r.b.ID, port, 500_000, tcfg)
	s1.OnComplete = func(int64) { done[0] = true }
	s1.Start()

	eng := r.net.Eng
	// Crash both shims while the first transfer is in flight.
	eng.At(1*sim.Millisecond, func() {
		r.shimA.Crash()
		r.shimB.Crash()
		if r.shimA.TrackedFlows() != 0 || r.shimB.TrackedFlows() != 0 {
			t.Errorf("crash left tracked flows: A=%d B=%d",
				r.shimA.TrackedFlows(), r.shimB.TrackedFlows())
		}
	})
	// Restart, then open a second connection that must be probed normally.
	eng.At(50*sim.Millisecond, func() {
		r.shimA.Restart()
		r.shimB.Restart()
	})
	eng.At(60*sim.Millisecond, func() {
		s2 := tcp.NewSender(r.a, r.b.ID, port, 20_000, tcfg)
		s2.OnComplete = func(int64) { done[1] = true }
		s2.Start()
	})
	eng.RunUntil(5 * sim.Second)

	if !done[0] {
		t.Fatal("in-flight transfer did not survive the shim crash")
	}
	if !done[1] {
		t.Fatal("post-restart transfer did not complete")
	}
	stA, stB := r.shimA.Stats(), r.shimB.Stats()
	if stA.Crashes != 1 || stA.Restarts != 1 || stB.Crashes != 1 || stB.Restarts != 1 {
		t.Fatalf("crash/restart counters wrong: A=%+v B=%+v", stA, stB)
	}
	// The second connection was probed and stamped by the reborn shims.
	if stA.SynsHeld != 2 {
		t.Fatalf("restarted sender shim held %d SYNs, want 2", stA.SynsHeld)
	}
	if stB.SynAcksStamped != 2 {
		t.Fatalf("restarted receiver shim stamped %d SYN-ACKs, want 2", stB.SynAcksStamped)
	}
	if r.shimA.Crashed() || r.shimB.Crashed() {
		t.Fatal("shims still report crashed after Restart")
	}
}

// TestProbeLossFallbackPassesThrough: with the whole probe train lost and
// the fallback armed, the SYN-ACK goes out unstamped (no DefaultICW clamp
// on zero evidence) and the flow runs unclamped.
func TestProbeLossFallbackPassesThrough(t *testing.T) {
	delay := 25 * sim.Microsecond
	cfg := DefaultConfig(testRTT(delay))
	cfg.ProbeLossFallback = true
	n := netem.NewNetwork()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("sw")
	big := func() netem.Queue { return aqm.NewDropTail(100000) }
	n.LinkHostSwitch(a, sw, big(), big(), 1e9, delay)
	n.LinkHostSwitch(b, sw, big(), big(), 1e9, delay)
	b.AddFilter(&probeDropper{every: 1}) // BEFORE the shim: eats every probe
	Attach(a, cfg)
	shimB := Attach(b, cfg)

	tcfg := tcp.DefaultConfig()
	b.Listen(port, tcp.NewListener(b, tcfg, nil))
	done := false
	s := tcp.NewSender(a, b.ID, port, 50_000, tcfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	n.Eng.RunUntil(2 * sim.Second)

	if !done {
		t.Fatal("flow incomplete under total probe loss")
	}
	st := shimB.Stats()
	if st.ProbesSeen != 0 {
		t.Fatalf("dropper leaked %d probes; test premise broken", st.ProbesSeen)
	}
	if st.ProbeFallbacks != 1 {
		t.Fatalf("ProbeFallbacks = %d, want 1", st.ProbeFallbacks)
	}
	if st.SynAcksStamped != 0 {
		t.Fatalf("SYN-ACK stamped despite fallback: %+v", st)
	}
	if st.RwndRewrites != 0 {
		t.Fatalf("fallback flow was still clamped %d times", st.RwndRewrites)
	}
}

// TestEcnDarkReleasesClamp drives closeEpoch directly: after EcnDarkEpochs
// consecutive mark-free data epochs the clamp doubles per epoch toward
// MaxWndSegs, and a single marked epoch snaps it back to the Next Fit
// verdict.
func TestEcnDarkReleasesClamp(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(100 * sim.Microsecond)
	cfg.EcnDarkEpochs = 3
	s := NewShim(eng, cfg, 0)
	key := netem.FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80}
	e, _ := s.table.ensure(key, roleReceiver)
	e.wndSegs = 2

	// Epochs 1-2 are below the dark threshold (and off the GrowthEvery=4
	// cadence); from epoch 3 on the clamp doubles.
	wantW := []int{2, 2, 2, 4, 8, 16}
	for i, want := range wantW {
		if i > 0 {
			e.unmarked = 5 // data flowed, no marks
			s.closeEpoch(e)
		}
		if e.wndSegs != want {
			t.Fatalf("after %d clean epochs: wndSegs = %d, want %d", i, e.wndSegs, want)
		}
	}
	if st := s.Stats(); st.DarkReleases != 3 {
		t.Fatalf("DarkReleases = %d, want 3", st.DarkReleases)
	}

	// ECN comes back: one marked epoch re-tightens to the Next Fit verdict.
	e.marked, e.unmarked = 6, 4
	s.closeEpoch(e)
	if e.wndSegs >= 16 {
		t.Fatalf("marked epoch did not re-tighten: wndSegs = %d", e.wndSegs)
	}
	if e.cleanEpochs != 0 {
		t.Fatalf("marked epoch left cleanEpochs = %d", e.cleanEpochs)
	}

	// The release saturates at MaxWndSegs and stops counting.
	cfg2 := DefaultConfig(100 * sim.Microsecond)
	cfg2.EcnDarkEpochs = 1
	cfg2.MaxWndSegs = 8
	s2 := NewShim(eng, cfg2, 0)
	e2, _ := s2.table.ensure(key, roleReceiver)
	e2.wndSegs = 3
	for i := 0; i < 5; i++ {
		e2.unmarked = 1
		s2.closeEpoch(e2)
	}
	if e2.wndSegs != 8 {
		t.Fatalf("release overshot MaxWndSegs: %d", e2.wndSegs)
	}
	if st := s2.Stats(); st.DarkReleases != 2 { // 3 -> 6 -> 8(cap), then idle
		t.Fatalf("saturated release kept counting: DarkReleases = %d", st.DarkReleases)
	}
}

// TestInboundRSTExpiresSenderEntry: a RST from the remote end must drop
// the sender-side table row immediately — the local guest will never send
// the FIN the outbound cleanup path relies on.
func TestInboundRSTExpiresSenderEntry(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(100 * sim.Microsecond)
	s := NewShim(eng, cfg, 0)
	key := netem.FlowKey{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80}
	e, _ := s.table.ensure(key, roleSender)
	s.stats.FlowsTracked++

	// The RST travels receiver -> sender, i.e. on the reversed 4-tuple.
	rst := &netem.Packet{
		Src: key.Dst, Dst: key.Src,
		SrcPort: key.DstPort, DstPort: key.SrcPort,
		Flags: netem.FlagRST | netem.FlagACK,
	}
	if v := s.inbound(nil, rst); v != netem.VerdictPass { // no probe: no tap needed
		t.Fatalf("inbound RST verdict %v", v)
	}
	if !e.closed {
		t.Fatal("sender entry not closed by inbound RST")
	}
	eng.RunUntil(sim.Second) // linger elapses
	if s.table.len() != 0 {
		t.Fatalf("RST'd flow leaked %d entries", s.table.len())
	}
	if st := s.Stats(); st.FlowsExpired != 1 {
		t.Fatalf("FlowsExpired = %d, want 1", st.FlowsExpired)
	}
}

// TestCrashedFlowEntryExpires: a guest that dies silently (no FIN, no RST)
// must not leak its row past the idle GC; a shim crash wipes rows at once.
func TestCrashedFlowEntryExpires(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(100 * sim.Microsecond)
	cfg.IdleTimeout = 10 * sim.Millisecond
	cfg.GCInterval = 2 * sim.Millisecond
	s := NewShim(eng, cfg, 0)
	key := netem.FlowKey{Src: 3, Dst: 4, SrcPort: 2000, DstPort: 80}
	e, _ := s.table.ensure(key, roleSender)
	e.lastActive = eng.Now()

	eng.RunUntil(50 * sim.Millisecond)
	if s.table.len() != 0 {
		t.Fatalf("silent flow survived idle GC: %d entries", s.table.len())
	}

	// And a crash drops everything instantly, idle or not.
	s2 := NewShim(eng, cfg, 1)
	s2.table.ensure(key, roleReceiver)
	s2.Crash()
	if s2.table.len() != 0 {
		t.Fatalf("crash left %d entries", s2.table.len())
	}
}
