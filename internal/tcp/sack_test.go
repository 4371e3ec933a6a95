package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hwatch/internal/aqm"
	"hwatch/internal/netem"
	"hwatch/internal/sim"
)

func TestScoreboardAddMerge(t *testing.T) {
	var sb scoreboard
	sb.add(netem.SackBlock{Start: 10, End: 20})
	sb.add(netem.SackBlock{Start: 30, End: 40})
	sb.add(netem.SackBlock{Start: 18, End: 32}) // bridges both
	if len(sb.ivs) != 1 || sb.ivs[0] != (netem.SackBlock{Start: 10, End: 40}) {
		t.Fatalf("merge failed: %v", sb.ivs)
	}
	sb.add(netem.SackBlock{Start: 50, End: 50}) // empty: ignored
	if len(sb.ivs) != 1 {
		t.Fatalf("empty block accepted: %v", sb.ivs)
	}
	if sb.highest() != 40 {
		t.Fatalf("highest = %d", sb.highest())
	}
}

func TestScoreboardHoles(t *testing.T) {
	var sb scoreboard
	sb.add(netem.SackBlock{Start: 10, End: 20})
	sb.add(netem.SackBlock{Start: 30, End: 40})
	start, end, ok := sb.nextHole(0)
	if !ok || start != 0 || end != 10 {
		t.Fatalf("hole = [%d,%d) ok=%v", start, end, ok)
	}
	start, end, ok = sb.nextHole(15) // inside first block: next hole [20,30)
	if !ok || start != 20 || end != 30 {
		t.Fatalf("hole = [%d,%d) ok=%v", start, end, ok)
	}
	if _, _, ok := sb.nextHole(35); ok {
		t.Fatal("hole found beyond final block interior")
	}
	if _, _, ok := sb.nextHole(40); ok {
		t.Fatal("hole found at highest")
	}
}

func TestScoreboardClearBelow(t *testing.T) {
	var sb scoreboard
	sb.add(netem.SackBlock{Start: 10, End: 20})
	sb.add(netem.SackBlock{Start: 30, End: 40})
	sb.clearBelow(15)
	if len(sb.ivs) != 2 || sb.ivs[0].Start != 15 {
		t.Fatalf("clearBelow: %v", sb.ivs)
	}
	sb.clearBelow(25)
	if len(sb.ivs) != 1 || sb.ivs[0].Start != 30 {
		t.Fatalf("clearBelow: %v", sb.ivs)
	}
	sb.reset()
	if sb.highest() != 0 || sb.sacked(35) {
		t.Fatal("reset incomplete")
	}
}

// Property: after arbitrary adds, intervals are sorted, disjoint and
// non-empty, and membership matches a brute-force bitmap.
func TestPropertyScoreboard(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb scoreboard
		truth := make([]bool, 300)
		for i := 0; i < int(n); i++ {
			a := int64(rng.Intn(250))
			b := a + int64(rng.Intn(20))
			sb.add(netem.SackBlock{Start: a, End: b})
			for x := a; x < b; x++ {
				truth[x] = true
			}
		}
		for i := 1; i < len(sb.ivs); i++ {
			if sb.ivs[i].Start <= sb.ivs[i-1].End {
				return false // overlapping or adjacent-unmerged
			}
		}
		for _, iv := range sb.ivs {
			if iv.End <= iv.Start {
				return false
			}
		}
		for x := int64(0); x < 300; x++ {
			if sb.sacked(x) != truth[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSACKNegotiation(t *testing.T) {
	// Both sides on -> negotiated; one side off -> not.
	mk := func(sCfg, rCfg Config) (*Sender, *testNet) {
		tn := newTestNet(aqm.NewDropTail(1000), 1e9, 10*sim.Microsecond)
		tn.listen(rCfg)
		s := NewSender(tn.a, tn.b.ID, testPort, 50_000, sCfg)
		s.Start()
		run(tn, sim.Second)
		return s, tn
	}
	on := DefaultConfig()
	on.SACK = true
	off := DefaultConfig()
	if s, _ := mk(on, on); !s.sackOn {
		t.Fatal("SACK not negotiated when both enable it")
	}
	if s, _ := mk(on, off); s.sackOn {
		t.Fatal("SACK negotiated against a non-SACK receiver")
	}
	if s, _ := mk(off, on); s.sackOn {
		t.Fatal("SACK negotiated without requesting it")
	}
}

// dropBurst drops a contiguous burst of data segments once.
type dropBurst struct {
	from, to int // segment indexes [from, to)
	count    int
}

func (f *dropBurst) Inbound(p *netem.Packet) netem.Verdict {
	return netem.VerdictPass
}
func (f *dropBurst) Outbound(p *netem.Packet) netem.Verdict {
	if p.IsData() {
		f.count++
		if f.count > f.from && f.count <= f.to {
			return netem.VerdictDrop
		}
	}
	return netem.VerdictPass
}

func TestSACKRecoversMultiLossInOneRecovery(t *testing.T) {
	// Drop 8 segments out of one large window: NewReno needs ~8 partial-ACK
	// round trips; SACK repairs the holes within the first recovery and
	// completes several times faster.
	fct := func(sack bool) (int64, Stats) {
		tn := newTestNet(aqm.NewDropTail(10000), 1e9, 250*sim.Microsecond) // 1 ms RTT
		cfg := DefaultConfig()
		cfg.SACK = sack
		cfg.SsthreshInit = 1 << 20
		tn.listen(cfg)
		tn.a.AddFilter(&dropBurst{from: 40, to: 48})
		var d int64 = -1
		s := NewSender(tn.a, tn.b.ID, testPort, 400_000, cfg)
		s.OnComplete = func(v int64) { d = v }
		s.Start()
		run(tn, 30*sim.Second)
		if d < 0 {
			t.Fatalf("sack=%v flow incomplete: %v", sack, s)
		}
		return d, s.Stats()
	}
	reno, renoStats := fct(false)
	sack, sackStats := fct(true)
	if sackStats.Timeouts > 0 {
		t.Fatalf("SACK run hit RTO: %+v", sackStats)
	}
	if sack >= reno {
		t.Fatalf("SACK FCT %dus not faster than NewReno %dus (reno stats %+v)",
			sack/sim.Microsecond, reno/sim.Microsecond, renoStats)
	}
}

func TestSACKExactDeliveryUnderRandomLoss(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.SACK = true
	rs := tn.listen(cfg)
	impairUplink(tn.a, 31, uplinkFaults{loss: 0.05})
	s := NewSender(tn.a, tn.b.ID, testPort, 300_000, cfg)
	s.Start()
	run(tn, 120*sim.Second)
	if !s.Done() || (*rs)[0].Delivered() != 300_000 {
		t.Fatalf("SACK under loss: done=%v delivered=%d", s.Done(), (*rs)[0].Delivered())
	}
}

func TestSACKChecksumsCoverBlocks(t *testing.T) {
	p := &netem.Packet{
		Src: 1, Dst: 2, Flags: netem.FlagACK, WScaleOpt: -1,
		Sack: []netem.SackBlock{{Start: 100, End: 200}},
	}
	netem.SetChecksum(p)
	if !netem.VerifyChecksum(p) {
		t.Fatal("fresh checksum invalid")
	}
	p.Sack[0].End = 300
	if netem.VerifyChecksum(p) {
		t.Fatal("checksum ignores SACK block mutation")
	}
}

func TestSACKWithDelayedAcks(t *testing.T) {
	tn := newTestNet(aqm.NewDropTail(1000), 1e9, 50*sim.Microsecond)
	cfg := DefaultConfig()
	cfg.SACK = true
	cfg.DelayedAck = true
	rs := tn.listen(cfg)
	tn.a.AddFilter(&dropBurst{from: 20, to: 24})
	s := NewSender(tn.a, tn.b.ID, testPort, 200_000, cfg)
	s.Start()
	run(tn, 30*sim.Second)
	if !s.Done() || (*rs)[0].Delivered() != 200_000 {
		t.Fatalf("SACK+delack: done=%v delivered=%d stats=%+v", s.Done(), (*rs)[0].Delivered(), s.Stats())
	}
}
