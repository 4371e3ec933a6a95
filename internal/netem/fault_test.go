package netem

import (
	"testing"

	"hwatch/internal/sim"
)

func TestPortDownLosesOffersButKeepsQueue(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	// 1 Gb/s, zero delay: a 1250-byte packet serializes in 10 us.
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	for i := 0; i < 3; i++ {
		p.Send(&Packet{ID: uint64(i), Wire: 1250})
	}
	// Fail the link mid-serialization of packet 0: it is already on the
	// wire and delivers; packets 1-2 hold in the queue.
	eng.At(5*sim.Microsecond, func() { p.SetDown(true) })
	// A packet offered while down is lost like frames into a pulled cable.
	eng.At(50*sim.Microsecond, func() { p.Send(&Packet{ID: 99, Wire: 1250}) })
	eng.At(100*sim.Microsecond, func() { p.SetDown(false) })
	eng.Run()

	if got := len(s.pkts); got != 3 {
		t.Fatalf("delivered %d packets, want 3 (queued survive, offered-while-down lost)", got)
	}
	for i, pkt := range s.pkts {
		if pkt.ID == 99 {
			t.Fatalf("packet offered while down was delivered (index %d)", i)
		}
	}
	// Packets 1-2 resume serialization only after the link returns.
	if s.at[1] < 110*sim.Microsecond || s.at[2] < 120*sim.Microsecond {
		t.Fatalf("held packets arrived at %v before link restoration drain", s.at[1:])
	}
	if st := p.Stats(); st.DownDrops != 1 {
		t.Fatalf("DownDrops = %d, want 1", st.DownDrops)
	}
}

func TestPortStripECN(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	p.SetStripECN(true)
	p.Send(&Packet{ID: 1, Wire: 100, ECN: CE})
	p.Send(&Packet{ID: 2, Wire: 100, ECN: ECT0})
	p.Send(&Packet{ID: 3, Wire: 100, ECN: NotECT})
	eng.Run()
	p.SetStripECN(false)
	p.Send(&Packet{ID: 4, Wire: 100, ECN: CE})
	eng.Run()

	want := []ECN{NotECT, NotECT, NotECT, CE}
	for i, pkt := range s.pkts {
		if pkt.ECN != want[i] {
			t.Errorf("packet %d: ECN %v, want %v", pkt.ID, pkt.ECN, want[i])
		}
	}
	if st := p.Stats(); st.EcnStripped != 2 {
		t.Fatalf("EcnStripped = %d, want 2 (NotECT packets don't count)", st.EcnStripped)
	}
}

func TestPortDropProbesOnly(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	p.SetDropProbes(true)
	p.Send(&Packet{ID: 1, Wire: 38, Probe: true})
	p.Send(&Packet{ID: 2, Wire: 1250})
	eng.Run()

	if len(s.pkts) != 1 || s.pkts[0].ID != 2 {
		t.Fatalf("probe blackout let the wrong packets through: %v", s.pkts)
	}
	if st := p.Stats(); st.ProbeDrops != 1 {
		t.Fatalf("ProbeDrops = %d, want 1", st.ProbeDrops)
	}
}

func TestPortLossHook(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	p := NewPort(eng, &unboundedQ{}, 1e9, 0)
	p.Connect(s)
	p.SetLoss(func(pkt *Packet) bool { return pkt.ID%2 == 0 })
	for i := 1; i <= 4; i++ {
		p.Send(&Packet{ID: uint64(i), Wire: 100})
	}
	eng.Run()
	if len(s.pkts) != 2 {
		t.Fatalf("loss hook delivered %d packets, want 2", len(s.pkts))
	}
	if st := p.Stats(); st.FaultDrops != 2 {
		t.Fatalf("FaultDrops = %d, want 2", st.FaultDrops)
	}
}

// TestGilbertElliottBurstStatistics checks the channel against its
// analytic burst-length and gap-length distributions: with loss certain in
// Bad and impossible in Good, bursts are geometric with mean 1/BadToGood
// and gaps geometric with mean 1/GoodToBad.
func TestGilbertElliottBurstStatistics(t *testing.T) {
	params := GEParams{GoodToBad: 0.05, BadToGood: 0.5, LossBad: 1}
	g := &GilbertElliott{P: params, Rng: sim.NewRNG(1234)}

	const trials = 400_000
	var bursts, gaps []int
	runBurst, runGap := 0, 0
	for i := 0; i < trials; i++ {
		if g.Drop() {
			if runGap > 0 {
				gaps = append(gaps, runGap)
				runGap = 0
			}
			runBurst++
		} else {
			if runBurst > 0 {
				bursts = append(bursts, runBurst)
				runBurst = 0
			}
			runGap++
		}
	}
	mean := func(xs []int) float64 {
		var sum int
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	if len(bursts) < 1000 {
		t.Fatalf("only %d bursts in %d trials — channel barely entered Bad", len(bursts), trials)
	}
	wantBurst := 1 / params.BadToGood // 2.0
	wantGap := 1 / params.GoodToBad   // 20.0
	if m := mean(bursts); m < wantBurst*0.9 || m > wantBurst*1.1 {
		t.Errorf("mean burst length %.3f, want %.1f ±10%%", m, wantBurst)
	}
	if m := mean(gaps); m < wantGap*0.9 || m > wantGap*1.1 {
		t.Errorf("mean gap length %.3f, want %.1f ±10%%", m, wantGap)
	}
	// Same seed ⇒ same loss pattern: the determinism the fault injector
	// relies on.
	h := &GilbertElliott{P: params, Rng: sim.NewRNG(1234)}
	for i := 0; i < 10_000; i++ {
		h.Drop()
	}
	g2 := &GilbertElliott{P: params, Rng: sim.NewRNG(1234)}
	for i := 0; i < 10_000; i++ {
		g2.Drop()
	}
	if h.Drops != g2.Drops || h.Seen != g2.Seen {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d drops", h.Drops, h.Seen, g2.Drops, g2.Seen)
	}
}
