package tcp

import (
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// ackCounter tallies pure ACKs leaving the receiver host.
type ackCounter struct {
	acks int
	ece  int
}

func (c *ackCounter) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (c *ackCounter) Outbound(p *netem.Packet) netem.Verdict {
	if p.Flags.Has(netem.FlagACK) && !p.Flags.Has(netem.FlagSYN) && !p.IsData() {
		c.acks++
		if p.Flags.Has(netem.FlagECE) {
			c.ece++
		}
	}
	return netem.VerdictPass
}

func TestDelayedAckCoalesces(t *testing.T) {
	run2 := func(delayed bool) (acks int, fct int64) {
		tn := newTestNet(aqm.NewDropTail(10000), 1e9, 20*sim.Microsecond)
		cfg := DefaultConfig()
		cfg.DelayedAck = delayed
		tn.listen(cfg)
		c := &ackCounter{}
		tn.b.AddFilter(c)
		s := NewSender(tn.a, tn.b.ID, testPort, 500_000, cfg)
		var d int64 = -1
		s.OnComplete = func(v int64) { d = v }
		s.Start()
		run(tn, 5*sim.Second)
		if d < 0 {
			t.Fatalf("flow (delayed=%v) incomplete", delayed)
		}
		return c.acks, d
	}
	perPkt, fct1 := run2(false)
	coalesced, fct2 := run2(true)
	if coalesced >= perPkt {
		t.Fatalf("delayed ACKs did not coalesce: %d vs %d", coalesced, perPkt)
	}
	// Coalescing to ~every 2nd segment should roughly halve the ACK count.
	if coalesced > perPkt*3/4 {
		t.Fatalf("weak coalescing: %d of %d", coalesced, perPkt)
	}
	// Completion must not be materially delayed.
	if fct2 > 2*fct1 {
		t.Fatalf("delayed ACKs inflated FCT: %d vs %d", fct2, fct1)
	}
}

func TestDelayedAckTimerFlushesOddSegment(t *testing.T) {
	// A single segment (below AckEvery) must still be acknowledged within
	// the delayed-ACK timeout, not hang until RTO.
	tn := newTestNet(aqm.NewDropTail(100), 1e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	tn.listen(cfg)
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 700, cfg) // one segment + FIN
	s.OnComplete = func(int64) { done = true }
	s.Start()
	run(tn, 50*sim.Millisecond) // well below minRTO
	if !done {
		t.Fatal("odd-segment flow not completed before RTO (timer flush missing)")
	}
	if s.Stats().Timeouts != 0 {
		t.Fatal("RTO fired under delayed ACKs on a clean path")
	}
}

func TestDelayedAckPreservesDupAcks(t *testing.T) {
	// A mid-flow loss must still trigger fast retransmit: out-of-order
	// arrivals bypass coalescing.
	tn := newTestNet(aqm.NewDropTail(10000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	tn.listen(cfg)
	tn.a.AddFilter(&lossFilter{n: 5})
	var fct int64 = -1
	s := NewSender(tn.a, tn.b.ID, testPort, 300_000, cfg)
	s.OnComplete = func(d int64) { fct = d }
	s.Start()
	run(tn, 5*sim.Second)
	st := s.Stats()
	if st.FastRecovery == 0 {
		t.Fatalf("no fast recovery under delayed ACKs: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("loss fell back to RTO under delayed ACKs: %+v", st)
	}
	if fct < 0 {
		t.Fatal("flow incomplete")
	}
}

func TestDCTCPDelayedAckCEFlush(t *testing.T) {
	// With delayed ACKs, a DCTCP receiver must keep the sender's mark
	// fraction accurate enough to regulate the queue near K.
	q := aqm.NewMarkThreshold(250, 50)
	tn := newTestNet(q, 10e9, 25*sim.Microsecond)
	cfg := DCTCPConfig()
	cfg.DelayedAck = true
	tn.listen(cfg)
	s := NewSender(tn.a, tn.b.ID, testPort, Infinite, cfg)
	s.Start()
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
		t.Fatalf("DCTCP+delack hit RTO: %+v", s.Stats())
	}
	sum := 0
	for _, v := range samples {
		sum += v
	}
	avg := float64(sum) / float64(len(samples))
	if avg > 100 {
		t.Fatalf("DCTCP+delack queue %.0f pkts: CE-change flushing broken?", avg)
	}
	if a := s.Alpha(); a <= 0 || a > 1 {
		t.Fatalf("alpha = %f", a)
	}
}
