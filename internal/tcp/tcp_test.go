package tcp

import (
	"testing"
	"testing/quick"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// testNet is a two-host dumbbell-lite: a -> sw -> b, with the switch port
// toward b as the bottleneck (its queue discipline is configurable).
type testNet struct {
	net  *netem.Network
	a, b *netem.Host
	bq   netem.Queue // bottleneck queue (toward b)
}

const testPort = 80

func newTestNet(bottleneck netem.Queue, rateBps, delay int64) *testNet {
	n := netem.NewNetwork()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("sw")
	big := func() netem.Queue { return aqm.NewDropTail(100000) }
	// Host links run 10x the bottleneck so queueing happens at the switch
	// port toward b (the instrumented discipline).
	n.LinkHostSwitch(a, sw, big(), big(), 10*rateBps, delay)
	down := netem.NewPort(n.Eng, bottleneck, rateBps, delay)
	down.Connect(b)
	sw.Route(b.ID, sw.AddPort(down))
	upB := netem.NewPort(n.Eng, big(), 10*rateBps, delay)
	upB.Connect(sw)
	b.AttachUplink(upB)
	return &testNet{net: n, a: a, b: b, bq: bottleneck}
}

// listen installs a plain listener on b and returns a pointer slot that
// captures each accepted receiver.
func (tn *testNet) listen(cfg Config) *[]*Receiver {
	var rs []*Receiver
	tn.b.Listen(testPort, NewListener(tn.b, cfg, func(r *Receiver) { rs = append(rs, r) }))
	return &rs
}

func run(tn *testNet, until int64) { tn.net.Eng.RunUntil(until) }

func TestBasicTransferCompletes(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	var fct int64 = -1
	s := NewSender(tn.a, tn.b.ID, testPort, 100_000, cfg)
	s.OnComplete = func(d int64) { fct = d }
	s.Start()
	run(tn, 10*sim.Second)

	if fct < 0 {
		t.Fatalf("flow did not complete: %v", s)
	}
	if !s.Done() {
		t.Fatal("sender not Done after completion")
	}
	if len(*rs) != 1 {
		t.Fatalf("receivers = %d, want 1", len(*rs))
	}
	r := (*rs)[0]
	if r.Delivered() != 100_000 {
		t.Fatalf("delivered %d bytes, want 100000", r.Delivered())
	}
	if !r.Closed() {
		t.Fatal("receiver not closed after FIN")
	}
	// Sanity on FCT: >= 2 RTT (handshake + data), << 1 s on a clean path.
	rtt := 4 * 50 * sim.Microsecond
	if fct < rtt/2 || fct > 100*sim.Millisecond {
		t.Fatalf("suspicious FCT %d ns", fct)
	}
	if st := s.Stats(); st.Timeouts != 0 || st.Retransmits != 0 {
		t.Fatalf("clean path had timeouts/retransmits: %+v", st)
	}
}

func TestZeroByteFlow(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 0, cfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	run(tn, sim.Second)
	if !done {
		t.Fatalf("zero-byte flow did not complete: %v", s)
	}
}

func TestSingleSegmentFlow(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 700, cfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	run(tn, sim.Second)
	if !done || (*rs)[0].Delivered() != 700 {
		t.Fatalf("short flow failed: done=%v delivered=%d", done, (*rs)[0].Delivered())
	}
}

func TestLongLivedFlowDeliversContinuously(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(100), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()
	run(tn, 100*sim.Millisecond)
	if len(*rs) != 1 {
		t.Fatal("no receiver")
	}
	got := (*rs)[0].Delivered()
	// 1 Gb/s for 100 ms ≈ 12.5 MB; expect a healthy share after slow-start
	// overshoot and sawtooth recovery (no RTO stalls): > 8 MB.
	if got < 8_000_000 {
		t.Fatalf("long flow delivered only %d bytes in 100ms at 1G", got)
	}
	if s.Done() {
		t.Fatal("infinite flow reported Done")
	}
}

// lossFilter drops the Nth outbound data segment once.
type lossFilter struct {
	n       int
	count   int
	dropped bool
}

func (f *lossFilter) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (f *lossFilter) Outbound(p *netem.Packet) netem.Verdict {
	if p.IsData() {
		f.count++
		if f.count == f.n && !f.dropped {
			f.dropped = true
			return netem.VerdictDrop
		}
	}
	return netem.VerdictPass
}

func TestFastRetransmitRecoversMidFlowLoss(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	tn.a.AddFilter(&lossFilter{n: 5}) // drop the 5th data segment
	var fct int64 = -1
	s := NewSender(tn.a, tn.b.ID, testPort, 300_000, cfg)
	s.OnComplete = func(d int64) { fct = d }
	s.Start()
	run(tn, 10*sim.Second)
	if fct < 0 {
		t.Fatalf("flow did not complete after mid-flow loss: %v", s)
	}
	st := s.Stats()
	if st.FastRecovery == 0 {
		t.Fatalf("expected fast recovery, got %+v", st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("mid-flow single loss should not need RTO: %+v", st)
	}
	if fct > 50*sim.Millisecond {
		t.Fatalf("FCT %dms indicates RTO was hit", fct/sim.Millisecond)
	}
	if (*rs)[0].Delivered() != 300_000 {
		t.Fatalf("delivered %d", (*rs)[0].Delivered())
	}
}

func TestTailLossRequiresRTO(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rs := tn.listen(cfg)
	// 10 KB = 7 segments with ICW 10: drop the last one; no further data
	// generates dupacks, so only the 200 ms RTO recovers it.
	tn.a.AddFilter(&lossFilter{n: 7})
	var fct int64 = -1
	s := NewSender(tn.a, tn.b.ID, testPort, 10_000, cfg)
	s.OnComplete = func(d int64) { fct = d }
	s.Start()
	run(tn, 10*sim.Second)
	if fct < 0 {
		t.Fatal("flow never completed")
	}
	st := s.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("tail loss must hit RTO: %+v", st)
	}
	if fct < cfg.MinRTO {
		t.Fatalf("FCT %d below minRTO %d despite tail loss", fct, cfg.MinRTO)
	}
	if (*rs)[0].Delivered() != 10_000 {
		t.Fatalf("delivered %d", (*rs)[0].Delivered())
	}
}

func TestSynLossRecovered(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	// Drop the first outbound packet (the SYN).
	f := &synDropper{}
	tn.a.AddFilter(f)
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 5000, cfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	run(tn, 10*sim.Second)
	if !done {
		t.Fatalf("flow did not survive SYN loss: %v", s)
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("SYN loss must be recovered by timeout")
	}
}

type synDropper struct{ dropped bool }

func (f *synDropper) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (f *synDropper) Outbound(p *netem.Packet) netem.Verdict {
	if p.Flags.Has(netem.FlagSYN) && !f.dropped {
		f.dropped = true
		return netem.VerdictDrop
	}
	return netem.VerdictPass
}

func TestIncastOverflowAllFlowsComplete(t *testing.T) {
	// Many senders into one shallow buffer: drops are guaranteed; TCP must
	// still complete every flow (by recovery or RTO).
	n := netem.NewNetwork()
	sw := n.NewSwitch("tor")
	dst := n.NewHost("agg")
	big := func() netem.Queue { return aqm.NewDropTail(10000) }
	down := netem.NewPort(n.Eng, aqm.NewDropTail(30), 1e9, 20*sim.Microsecond)
	down.Connect(dst)
	di := sw.AddPort(down)
	sw.Route(dst.ID, di)
	dstUp := netem.NewPort(n.Eng, big(), 1e9, 20*sim.Microsecond)
	dstUp.Connect(sw)
	dst.AttachUplink(dstUp)

	cfg := DefaultConfig()
	dst.Listen(testPort, NewListener(dst, cfg, nil))

	const nSenders = 20
	completed := 0
	for i := 0; i < nSenders; i++ {
		h := n.NewHost("")
		n.LinkHostSwitch(h, sw, big(), big(), 1e9, 20*sim.Microsecond)
		s := NewSender(h, dst.ID, testPort, 20_000, cfg)
		s.OnComplete = func(int64) { completed++ }
		n.Eng.Schedule(int64(i)*sim.Microsecond, s.Start)
	}
	n.Eng.RunUntil(120 * sim.Second) // room for exponential RTO backoff
	if completed != nSenders {
		t.Fatalf("completed %d/%d flows under incast", completed, nSenders)
	}
}

func TestECNNegotiation(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.ECN = true
	rs := tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, 50_000, cfg)
	s.Start()
	run(tn, sim.Second)
	if !s.ecnOn {
		t.Fatal("ECN not negotiated when both sides capable")
	}
	if (*rs)[0].peerEcn != true {
		t.Fatal("receiver did not record peer ECN capability")
	}

	// Sender ECN against a non-ECN receiver must not negotiate.
	tn2 := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
	cfgOff := DefaultConfig()
	tn2.listen(cfgOff)
	cfgOn := DefaultConfig()
	cfgOn.ECN = true
	s2 := NewSender(tn2.a, tn2.b.ID, testPort, 50_000, cfgOn)
	s2.Start()
	run(tn2, sim.Second)
	if s2.ecnOn {
		t.Fatal("ECN negotiated against a non-ECN receiver")
	}
}

func TestECNResponsiveReducesOnMark(t *testing.T) {
	// Mark threshold 20 on a deep buffer: no drops, only marks. The
	// responsive sender must cut its window; flow still completes.
	tn := newTestNet(aqm.NewMarkThreshold(1000, 20), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.ECN = true
	cfg.ECNResponsive = true
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()
	run(tn, 200*sim.Millisecond)
	st := s.Stats()
	if st.EceAcks == 0 {
		t.Fatal("no ECE feedback observed")
	}
	if st.ECNReductions == 0 {
		t.Fatal("responsive sender never reduced on ECE")
	}
	if st.Timeouts != 0 {
		t.Fatalf("marking-only path caused timeouts: %+v", st)
	}
}

func TestECNNonResponsiveIgnoresMarks(t *testing.T) {
	tn := newTestNet(aqm.NewMarkThreshold(1000, 20), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.ECN = true
	cfg.ECNResponsive = false
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()
	run(tn, 200*sim.Millisecond)
	st := s.Stats()
	if st.EceAcks == 0 {
		t.Fatal("expected ECE feedback on the wire")
	}
	if st.ECNReductions != 0 {
		t.Fatalf("non-responsive flavour reduced %d times", st.ECNReductions)
	}
}

func TestDCTCPKeepsQueueNearThreshold(t *testing.T) {
	q := aqm.NewMarkThreshold(250, 50)
	tn := newTestNet(q, 10e9, 25*sim.Microsecond)
	cfg := DCTCPConfig()
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()

	// Sample the bottleneck queue every 100 us after convergence.
	var samples []int
	var sample func()
	sample = func() {
		if tn.net.Eng.Now() > 50*sim.Millisecond {
			samples = append(samples, q.Len())
		}
		tn.net.Eng.Schedule(100*sim.Microsecond, sample)
	}
	tn.net.Eng.Schedule(0, sample)
	run(tn, 300*sim.Millisecond)

	if s.Stats().Timeouts != 0 {
		t.Fatalf("DCTCP steady state hit RTO: %+v", s.Stats())
	}
	sum := 0
	peak := 0
	for _, v := range samples {
		sum += v
		if v > peak {
			peak = v
		}
	}
	avg := float64(sum) / float64(len(samples))
	if avg > 80 {
		t.Fatalf("DCTCP standing queue %.1f pkts, should sit near K=50", avg)
	}
	if peak >= 250 {
		t.Fatal("DCTCP filled the buffer")
	}
	if a := s.Alpha(); a <= 0 || a > 1 {
		t.Fatalf("alpha out of range: %f", a)
	}
}

func TestDCTCPAlphaDropsWhenUncongested(t *testing.T) {
	// On an unloaded path with a huge threshold, alpha must decay from its
	// initial 1 toward 0.
	tn := newTestNet(aqm.NewMarkThreshold(10000, 9000), 10e9, 10*sim.Microsecond)
	cfg := DCTCPConfig()
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()
	run(tn, 100*sim.Millisecond)
	if s.Alpha() > 0.05 {
		t.Fatalf("alpha = %f, want ~0 on a clean path", s.Alpha())
	}
}

func TestRwndClampLimitsSender(t *testing.T) {
	// Receiver advertises a 4 KB buffer: the sender must respect it even
	// though cwnd allows far more; transfer still completes.
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	rcfg := DefaultConfig()
	rcfg.RcvBuf = 4096
	rs := tn.listen(rcfg)
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 200_000, cfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()

	maxFlight := int64(0)
	var watch func()
	watch = func() {
		if f := s.flight(); f > maxFlight {
			maxFlight = f
		}
		tn.net.Eng.Schedule(10*sim.Microsecond, watch)
	}
	tn.net.Eng.Schedule(0, watch)
	run(tn, 10*sim.Second)

	if !done {
		t.Fatal("clamped flow did not complete")
	}
	if maxFlight > 4096+int64(cfg.MSS) {
		t.Fatalf("flight %d exceeded advertised window 4096", maxFlight)
	}
	if (*rs)[0].Delivered() != 200_000 {
		t.Fatalf("delivered %d", (*rs)[0].Delivered())
	}
}

// rwndRewriter mimics HWatch: clamps the rwnd of ACKs leaving the receiver.
type rwndRewriter struct{ clampBytes int64 }

func (f *rwndRewriter) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (f *rwndRewriter) Outbound(p *netem.Packet) netem.Verdict {
	if p.Flags.Has(netem.FlagACK) && !p.Flags.Has(netem.FlagSYN) {
		scale := wscaleFor(1 << 20)
		cur := DecodeRwnd(p.Rwnd, scale)
		if cur > f.clampBytes {
			old := p.Rwnd
			p.Rwnd = EncodeRwnd(f.clampBytes, scale)
			p.Checksum = netem.UpdateChecksum16(p.Checksum, old, p.Rwnd)
		}
	}
	return netem.VerdictPass
}

func TestHypervisorRwndRewriteGovernsSender(t *testing.T) {
	// Proof of the HWatch mechanism at the TCP level: a receiver-side
	// egress filter rewriting ACK rwnd throttles an unmodified sender.
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig() // both guests unmodified
	tn.listen(cfg)
	clamp := int64(2 * cfg.MSS)
	tn.b.AddFilter(&rwndRewriter{clampBytes: clamp})
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()

	maxFlight := int64(0)
	var watch func()
	watch = func() {
		if tn.net.Eng.Now() > 10*sim.Millisecond { // after first ACKs
			if f := s.flight(); f > maxFlight {
				maxFlight = f
			}
		}
		tn.net.Eng.Schedule(10*sim.Microsecond, watch)
	}
	tn.net.Eng.Schedule(0, watch)
	run(tn, 100*sim.Millisecond)

	if maxFlight > clamp+int64(cfg.MSS) {
		t.Fatalf("flight %d not governed by rewritten rwnd %d", maxFlight, clamp)
	}
	// The rewritten packets must still checksum-verify end to end
	// (validated implicitly by UpdateChecksum16's property test; here we
	// just confirm the flow made progress).
	if s.Stats().BytesAcked == 0 {
		t.Fatal("no progress under rwnd rewriting")
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	n := netem.NewNetwork()
	sw := n.NewSwitch("sw")
	dst := n.NewHost("dst")
	big := func() netem.Queue { return aqm.NewDropTail(10000) }
	down := netem.NewPort(n.Eng, aqm.NewDropTail(100), 1e9, 50*sim.Microsecond)
	down.Connect(dst)
	sw.Route(dst.ID, sw.AddPort(down))
	up := netem.NewPort(n.Eng, big(), 1e9, 50*sim.Microsecond)
	up.Connect(sw)
	dst.AttachUplink(up)

	cfg := DefaultConfig()
	var recvs []*Receiver
	dst.Listen(testPort, NewListener(dst, cfg, func(r *Receiver) { recvs = append(recvs, r) }))

	for i := 0; i < 2; i++ {
		h := n.NewHost("")
		n.LinkHostSwitch(h, sw, big(), big(), 1e9, 50*sim.Microsecond)
		NewSender(h, dst.ID, testPort, Infinite, cfg).Start()
	}
	n.Eng.RunUntil(2 * sim.Second)

	if len(recvs) != 2 {
		t.Fatalf("receivers = %d", len(recvs))
	}
	d0, d1 := float64(recvs[0].Delivered()), float64(recvs[1].Delivered())
	total := (d0 + d1) * 8 / 2 // bits/s over 2 s
	if total < 0.8e9 {
		t.Fatalf("bottleneck underutilized: %.2f Gb/s", total/1e9)
	}
	ratio := d0 / d1
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair split: %.0f vs %.0f", d0, d1)
	}
}

func TestRTTEstimator(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 100*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, 500_000, cfg)
	s.Start()
	run(tn, sim.Second)
	// Base RTT = 4 hops * 100us = 400us plus serialization.
	if s.SRTT() < 300*sim.Microsecond || s.SRTT() > 5*sim.Millisecond {
		t.Fatalf("SRTT = %dus, want ~400-1000us", s.SRTT()/sim.Microsecond)
	}
	if s.RTO() != cfg.MinRTO {
		t.Fatalf("RTO = %d, want clamped to minRTO %d", s.RTO(), cfg.MinRTO)
	}
}

func TestInitialWindowRespected(t *testing.T) {
	for _, icw := range []int{1, 5, 10, 20} {
		tn := newTestNet(aqm.NewDropTail(10000), 1e9, 500*sim.Microsecond)
		cfg := DefaultConfig()
		cfg.InitCwnd = icw
		tn.listen(cfg)
		s := NewSender(tn.a, tn.b.ID, testPort, 1_000_000, cfg)
		s.Start()
		// Run just past the handshake so the first window is in flight but
		// no data ACK has returned (RTT = 2 ms; handshake takes 1 RTT).
		run(tn, 2*sim.Millisecond+800*sim.Microsecond)
		want := int64(icw * cfg.MSS)
		if f := s.flight(); f != want {
			t.Fatalf("ICW %d: first-window flight = %d bytes, want %d", icw, f, want)
		}
	}
}

func TestPropertyEncodeDecodeRwnd(t *testing.T) {
	f := func(bytes int64, scale uint8) bool {
		if bytes < 0 {
			bytes = -bytes
		}
		bytes %= 1 << 30
		sc := int8(scale % 15)
		field := EncodeRwnd(bytes, sc)
		got := DecodeRwnd(field, sc)
		// Round-up encoding: got >= bytes (unless saturated), and within
		// one scale unit above.
		if got < bytes {
			return field == 0xffff // saturation is the only excuse
		}
		return got-bytes < 1<<uint(sc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestWscaleFor(t *testing.T) {
	if wscaleFor(60000) != 0 {
		t.Fatal("small buffer needs no scaling")
	}
	if s := wscaleFor(1 << 20); s != 5 {
		t.Fatalf("1MB buffer scale = %d, want 5", s)
	}
	if s := wscaleFor(1 << 40); s != 14 {
		t.Fatalf("scale must cap at 14, got %d", s)
	}
}

func TestChecksumsValidEndToEnd(t *testing.T) {
	// Every packet a guest stack emits must carry a valid checksum.
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	bad := 0
	ver := &verifier{onBad: func() { bad++ }}
	tn.a.AddFilter(ver)
	tn.b.AddFilter(ver)
	s := NewSender(tn.a, tn.b.ID, testPort, 50_000, cfg)
	s.Start()
	run(tn, sim.Second)
	if bad != 0 {
		t.Fatalf("%d packets with invalid checksums", bad)
	}
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
}

type verifier struct{ onBad func() }

func (v *verifier) check(p *netem.Packet) {
	if !netem.VerifyChecksum(p) {
		v.onBad()
	}
}
func (v *verifier) Inbound(p *netem.Packet) netem.Verdict {
	v.check(p)
	return netem.VerdictPass
}
func (v *verifier) Outbound(p *netem.Packet) netem.Verdict {
	v.check(p)
	return netem.VerdictPass
}
