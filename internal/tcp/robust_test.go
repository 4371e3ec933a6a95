package tcp

import (
	"fmt"
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// Robustness suite: TCP must deliver exactly the requested bytes and
// terminate under every network fault the production fault path can inject.

// uplinkFaults are the per-packet fault probabilities impairUplink arms.
type uplinkFaults struct {
	loss, corrupt, dup, reorder float64
	hold                        int64 // reorder hold bound; 0 = the default
}

// impairUplink arms h's uplink with the faults internal/faults stages: a
// seeded Bernoulli loss process, and corruption, duplication and
// hold-and-release reordering at the port's ingress stage. It returns the
// ingress pipeline, whose Stats count what was injected.
func impairUplink(h *netem.Host, seed int64, f uplinkFaults) *netem.PortImpair {
	rng := sim.NewRNG(seed)
	up := h.Uplink()
	if f.loss > 0 {
		up.SetLoss(func(*netem.Packet) bool { return rng.Float64() < f.loss })
	}
	imp := up.Impair(false)
	imp.SetCorrupt(f.corrupt, 0, rng)
	imp.SetDuplicate(f.dup, 1, rng)
	imp.SetReorder(f.reorder, f.hold, rng)
	return imp
}

func runImpaired(t *testing.T, seed int64, f uplinkFaults, size int64, horizon int64) (*Sender, *Receiver, *netem.PortImpair) {
	t.Helper()
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	tn.a.VerifyChecksums = true
	tn.b.VerifyChecksums = true
	imp := impairUplink(tn.a, seed, f)
	s := NewSender(tn.a, tn.b.ID, testPort, size, cfg)
	s.Start()
	run(tn, horizon)
	if len(*rs) == 0 {
		t.Fatal("connection never established")
	}
	return s, (*rs)[0], imp
}

func TestRobustRandomLoss(t *testing.T) {
	for _, p := range []float64{0.01, 0.05} {
		p := p
		t.Run(fmt.Sprintf("loss=%v", p), func(t *testing.T) {
			s, r, _ := runImpaired(t, 21, uplinkFaults{loss: p}, 200_000, 120*sim.Second)
			if !s.Done() {
				t.Fatalf("flow incomplete under %.0f%% loss: %v", p*100, s)
			}
			if r.Delivered() != 200_000 {
				t.Fatalf("delivered %d", r.Delivered())
			}
			if s.Stats().Retransmits == 0 {
				t.Fatal("loss injected but nothing retransmitted?")
			}
		})
	}
}

func TestRobustReordering(t *testing.T) {
	f := uplinkFaults{reorder: 0.05, hold: 300 * sim.Microsecond}
	s, r, _ := runImpaired(t, 22, f, 300_000, 120*sim.Second)
	if !s.Done() || r.Delivered() != 300_000 {
		t.Fatalf("reordering broke delivery: done=%v delivered=%d", s.Done(), r.Delivered())
	}
	// Reordering alone may cause spurious fast retransmits but the data
	// must still be exact (cumulative ACK + OOO buffer discard duplicates).
}

func TestRobustDuplication(t *testing.T) {
	s, r, _ := runImpaired(t, 23, uplinkFaults{dup: 0.2}, 200_000, 60*sim.Second)
	if !s.Done() {
		t.Fatal("duplication broke the flow")
	}
	if r.Delivered() != 200_000 {
		t.Fatalf("duplicates double-counted: delivered %d", r.Delivered())
	}
}

func TestRobustCorruption(t *testing.T) {
	s, r, imp := runImpaired(t, 24, uplinkFaults{corrupt: 0.03}, 150_000, 120*sim.Second)
	if !s.Done() || r.Delivered() != 150_000 {
		t.Fatalf("corruption broke delivery: done=%v delivered=%d", s.Done(), r.Delivered())
	}
	if imp.Stats().Corrupted == 0 {
		t.Fatal("no corruption exercised")
	}
}

func TestRobustEverythingAtOnce(t *testing.T) {
	f := uplinkFaults{loss: 0.02, dup: 0.05, reorder: 0.03, corrupt: 0.02, hold: 200 * sim.Microsecond}
	s, r, _ := runImpaired(t, 25, f, 250_000, 300*sim.Second)
	if !s.Done() || r.Delivered() != 250_000 {
		t.Fatalf("combined faults broke delivery: done=%v delivered=%d stats=%+v",
			s.Done(), r.Delivered(), s.Stats())
	}
}

// flowControlChecker verifies the receive-window contract exactly at send
// time: every outbound data byte must lie below the last advertised
// ack + rwnd (plus one MSS of slack for the sub-MSS progress exception
// when a middlebox clamps the window under one segment).
type flowControlChecker struct {
	t          *testing.T
	mss        int64
	lastAck    int64
	lastRwnd   int64
	peerWscale int8
	sawAck     bool
	violations int
}

func (c *flowControlChecker) Inbound(p *netem.Packet) netem.Verdict {
	if p.Flags.Has(netem.FlagSYN) && p.Flags.Has(netem.FlagACK) && p.WScaleOpt >= 0 {
		c.peerWscale = p.WScaleOpt
	}
	if p.Flags.Has(netem.FlagACK) && p.Ack >= c.lastAck {
		c.lastAck = p.Ack
		c.lastRwnd = DecodeRwnd(p.Rwnd, c.peerWscale)
		c.sawAck = true
	}
	return netem.VerdictPass
}

func (c *flowControlChecker) Outbound(p *netem.Packet) netem.Verdict {
	if p.IsData() && c.sawAck {
		limit := c.lastAck + maxI64c(c.lastRwnd, c.mss)
		if end := p.Seq + int64(p.Payload); end > limit {
			c.violations++
			c.t.Logf("data to %d beyond ack %d + rwnd %d", end, c.lastAck, c.lastRwnd)
		}
	}
	return netem.VerdictPass
}

func maxI64c(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Invariant: under arbitrary faults the sender never transmits data beyond
// the receiver's advertised window (checked exactly at send time).
func TestRobustWindowInvariant(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rcfg := DefaultConfig()
	rcfg.RcvBuf = 64 << 10 // a tight window so the contract binds often
	var rs []*Receiver
	tn.b.Listen(testPort, NewListener(tn.b, rcfg, func(r *Receiver) { rs = append(rs, r) }))
	check := &flowControlChecker{t: t, mss: int64(cfg.MSS)}
	tn.a.AddFilter(check)
	impairUplink(tn.a, 26, uplinkFaults{loss: 0.03, reorder: 0.02, hold: 200 * sim.Microsecond})
	s := NewSender(tn.a, tn.b.ID, testPort, 500_000, cfg)
	s.Start()
	run(tn, 60*sim.Second)
	if check.violations > 0 {
		t.Fatalf("%d flow-control violations", check.violations)
	}
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
}

func TestRobustShimUnderLoss(t *testing.T) {
	// HWatch's stolen-SYN path and rwnd machinery must tolerate loss of
	// probes, SYNs, SYN-ACKs and ACKs alike: exercised by a lossy HWatch
	// transfer at the TCP level (shim attached in internal/core tests;
	// here we emulate a lossy receiver path against the rwnd rewriter).
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	tn.b.AddFilter(&rwndRewriter{clampBytes: 3 * int64(cfg.MSS)})
	impairUplink(tn.b, 27, uplinkFaults{loss: 0.03}) // lose ACKs
	s := NewSender(tn.a, tn.b.ID, testPort, 150_000, cfg)
	s.Start()
	run(tn, 120*sim.Second)
	if !s.Done() {
		t.Fatalf("clamped flow under ACK loss incomplete: %v", s)
	}
}
