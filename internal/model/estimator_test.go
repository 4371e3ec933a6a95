package model

import (
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
	"hwatch/internal/tcp"
	"hwatch/internal/topo"
)

func TestEstimatorIdlePath(t *testing.T) {
	e := NewCongestionEstimator()
	if e.Ratio() != 1 {
		t.Fatal("empty estimator must report 1")
	}
	// Back-to-back sends arriving with identical spacing: ratio 1.
	for i := int64(0); i < 100; i++ {
		e.Observe(i*1000, 5000+i*1000)
	}
	if r := e.Ratio(); r < 0.99 || r > 1.01 {
		t.Fatalf("idle ratio = %f", r)
	}
	if infl := e.DelayInflation(); infl != 1 {
		t.Fatalf("constant-delay inflation = %f", infl)
	}
	if e.Congested(0.1) {
		t.Fatal("idle path flagged congested")
	}
}

func TestEstimatorDilation(t *testing.T) {
	e := NewCongestionEstimator()
	// Arrival gaps 3x the send gaps (cross traffic interleaving).
	for i := int64(0); i < 100; i++ {
		e.Observe(i*1000, 5000+i*3000)
	}
	if r := e.Ratio(); r < 2.5 || r > 3.5 {
		t.Fatalf("dilated ratio = %f, want ~3", r)
	}
	if !e.Congested(0.5) {
		t.Fatal("dilation not flagged")
	}
}

func TestEstimatorIgnoresSimultaneousSendsForRatio(t *testing.T) {
	e := NewCongestionEstimator()
	e.Observe(100, 200)
	e.Observe(100, 900) // same send time: no ratio info...
	if e.Samples() != 0 {
		t.Fatalf("zero-gap ratio sample incorporated: %d", e.Samples())
	}
	// ...but it IS a burst pair: its arrival gap is a service-time sample.
	if e.BurstSamples() != 1 || e.BurstSpacing() != 700 {
		t.Fatalf("burst pair lost: n=%d spacing=%f", e.BurstSamples(), e.BurstSpacing())
	}
}

// Simulation cross-check: a probe flow's dilation ratio is near 1 on an
// idle fabric and clearly above 1 when elephants share the bottleneck.
func TestEstimatorSeesCrossTraffic(t *testing.T) {
	measure := func(withCross bool) float64 {
		d := topo.NewDumbbell(topo.DumbbellConfig{
			Senders:       3,
			EdgeRateBps:   10e9,
			BottleneckBps: 1e9,
			LinkDelay:     25 * sim.Microsecond,
			BottleneckQ:   func() netem.Queue { return aqm.NewDropTail(500) },
			EdgeQ:         func() netem.Queue { return aqm.NewDropTail(100000) },
		})
		cfg := tcp.DefaultConfig()
		d.Receiver.Listen(80, tcp.NewListener(d.Receiver, cfg, nil))
		if withCross {
			tcp.NewSender(d.Senders[1], d.Receiver.ID, 80, tcp.Infinite, cfg).Start()
			tcp.NewSender(d.Senders[2], d.Receiver.ID, 80, tcp.Infinite, cfg).Start()
		}

		// The measured flow starts after the elephants fill the queue.
		est := NewCongestionEstimator()
		est.BurstGap = 5 * sim.Microsecond // only back-to-back pairs
		d.Receiver.AddFilter(&estTap{est: est, src: d.Senders[0].ID, eng: d.Net.Eng})
		d.Net.Eng.At(50*sim.Millisecond, func() {
			tcp.NewSender(d.Senders[0], d.Receiver.ID, 80, 200_000, cfg).Start()
		})
		d.Net.Eng.RunUntil(3 * sim.Second)
		if est.BurstSamples() < 10 {
			t.Fatalf("too few burst samples: %d", est.BurstSamples())
		}
		// Burst spacing must at least see the bottleneck service time.
		if sp := est.BurstSpacing(); sp < 5_000 {
			t.Fatalf("burst spacing %.0fns below one service round", sp)
		}
		return est.Delay()
	}
	idle := measure(false)
	busy := measure(true)
	// The elephants' standing queue must dominate the measured flow's own
	// transient self-queueing.
	if idle <= 0 {
		t.Fatal("no delay samples on the idle run")
	}
	if busy < 2*idle {
		t.Fatalf("cross traffic not detected: idle=%.0fns busy=%.0fns", idle, busy)
	}
}

// estTap feeds data-packet timestamps of one source into the estimator.
type estTap struct {
	est *CongestionEstimator
	src netem.NodeID
	eng *sim.Engine
}

func (t *estTap) Outbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (t *estTap) Inbound(p *netem.Packet) netem.Verdict {
	if p.Src == t.src && p.IsData() {
		t.est.Observe(p.SentAt, t.eng.Now())
	}
	return netem.VerdictPass
}
