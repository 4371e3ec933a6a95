package tcp

import (
	"testing"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

// rwndWatcher records the smallest non-SYN window the receiver advertised.
type rwndWatcher struct {
	scale int8
	min   int64
	seen  bool
}

func (w *rwndWatcher) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (w *rwndWatcher) Outbound(p *netem.Packet) netem.Verdict {
	if p.Flags.Has(netem.FlagSYN) {
		if p.WScaleOpt >= 0 {
			w.scale = p.WScaleOpt
		}
		return netem.VerdictPass
	}
	if p.Flags.Has(netem.FlagACK) && !p.IsData() {
		v := DecodeRwnd(p.Rwnd, w.scale)
		if !w.seen || v < w.min {
			w.min, w.seen = v, true
		}
	}
	return netem.VerdictPass
}

func TestReceiverShrinksWindowUnderOOOBuffering(t *testing.T) {
	// Drop one early segment so a window's worth of later data is held in
	// the out-of-order buffer; the advertised window must shrink by the
	// buffered amount while the hole exists.
	tn := newTestNet(aqm.NewDropTail(10000), 1e9, 250*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.RcvBuf = 128 << 10
	w := &rwndWatcher{}
	tn.b.AddFilter(w)
	tn.listen(cfg)
	tn.a.AddFilter(&lossFilter{n: 12})
	s := NewSender(tn.a, tn.b.ID, testPort, 300_000, cfg)
	s.Start()
	run(tn, 10*sim.Second)
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
	if !w.seen {
		t.Fatal("no ACK windows observed")
	}
	if w.min >= int64(cfg.RcvBuf) {
		t.Fatalf("advertised window never shrank below the buffer (%d)", w.min)
	}
}

func TestSubMSSWindowStillProgresses(t *testing.T) {
	// A middlebox clamping the window below one MSS must not deadlock the
	// sender: it sends shrunken segments when nothing is in flight.
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 20*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	tn.b.AddFilter(&rwndRewriter{clampBytes: 800}) // about half an MSS
	done := false
	s := NewSender(tn.a, tn.b.ID, testPort, 20_000, cfg)
	s.OnComplete = func(int64) { done = true }
	s.Start()
	run(tn, 30*sim.Second)
	if !done {
		t.Fatalf("sub-MSS window deadlocked the flow: %v", s)
	}
}

func TestHugeBufferWindowScaling(t *testing.T) {
	// A 32 MB advertised buffer needs wscale 9; the decoded peer window at
	// the sender must reflect the full size.
	tn := newTestNet(aqm.NewDropTail(10000), 10e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	rcfg := DefaultConfig()
	rcfg.RcvBuf = 32 << 20
	tn.b.Listen(testPort, NewListener(tn.b, rcfg, nil))
	s := NewSender(tn.a, tn.b.ID, testPort, 100_000, cfg)
	s.Start()
	run(tn, sim.Second)
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
	// Last advertised window: the full buffer, exactly representable.
	if got := s.PeerRwnd(); got < 32<<20 || got > (32<<20)+(1<<9) {
		t.Fatalf("peer window %d, want ~32MB", got)
	}
}

func TestManySequentialConnectionsSamePair(t *testing.T) {
	// Thousands of connections between one host pair (the testbed pattern)
	// must not collide on ports or demux state.
	tn := newTestNet(aqm.NewDropTail(10000), 10e9, 10*sim.Microsecond)
	cfg := DefaultConfig()
	tn.listen(cfg)
	const rounds = 300
	done := 0
	var launch func()
	launch = func() {
		s := NewSender(tn.a, tn.b.ID, testPort, 5000, cfg)
		s.OnComplete = func(int64) {
			done++
			if done < rounds {
				launch()
			}
		}
		s.Start()
	}
	tn.net.Eng.Schedule(0, launch)
	run(tn, 60*sim.Second)
	if done != rounds {
		t.Fatalf("sequential connections completed %d/%d", done, rounds)
	}
	if orphans := tn.b.Stats().Orphans; orphans != 0 {
		t.Fatalf("%d orphan segments across clean sequential connections", orphans)
	}
}
