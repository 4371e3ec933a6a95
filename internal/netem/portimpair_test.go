package netem

import (
	"math"
	"sort"
	"testing"

	"hwatch/internal/sim"
)

func impairNet(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("sw")
	n.LinkHostSwitch(a, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
	n.LinkHostSwitch(b, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
	return n, a, b
}

func sendN(n *Network, a, b *Host, count int) *recHandler {
	h := &recHandler{}
	b.Bind(ConnID{LocalPort: 80, Remote: a.ID, RemotePort: 1}, h)
	for i := 0; i < count; i++ {
		p := &Packet{
			Src: a.ID, Dst: b.ID, SrcPort: 1, DstPort: 80,
			Seq: int64(i), Payload: 100, Wire: 158, Flags: FlagACK, WScaleOpt: -1,
		}
		SetChecksum(p)
		a.Send(p)
	}
	n.Eng.Run()
	return h
}

// portImpairNet builds the two-host network and returns the sender's
// uplink port — the port every test impairs.
func portImpairNet(t *testing.T) (*Network, *Host, *Host, *Port) {
	t.Helper()
	n, a, b := impairNet(t)
	return n, a, b, a.Uplink()
}

func TestPortImpairCorruptVerified(t *testing.T) {
	n, a, b, up := portImpairNet(t)
	b.VerifyChecksums = true
	imp := up.Impair(false)
	imp.SetCorrupt(0.2, 0.5, sim.NewRNG(1))
	h := sendN(n, a, b, 1000)
	st := imp.Stats()
	if st.Corrupted == 0 || st.CorruptDrops == 0 {
		t.Fatalf("no corruption observed: %+v", st)
	}
	if st.CorruptDrops > st.Corrupted {
		t.Fatalf("corrupt-drops %d exceed corruptions %d", st.CorruptDrops, st.Corrupted)
	}
	hd := b.Stats().ChecksumDrops
	// Every flip either died at the port (FCS) or at the verifying host.
	if hd != st.Corrupted-st.CorruptDrops {
		t.Fatalf("checksum drops %d, want %d", hd, st.Corrupted-st.CorruptDrops)
	}
	if got := int64(len(h.pkts)) + st.CorruptDrops + hd; got != 1000 {
		t.Fatalf("delivered+dropped = %d, want 1000", got)
	}
	frac := float64(st.CorruptDrops) / float64(st.Corrupted)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("drop fraction %.2f of corrupted, want ~0.5", frac)
	}
}

func TestPortImpairDuplicateBounded(t *testing.T) {
	n, a, b, up := portImpairNet(t)
	imp := up.Impair(false)
	imp.SetDuplicate(0.2, 3, sim.NewRNG(2))
	h := sendN(n, a, b, 1000)
	st := imp.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates injected")
	}
	if st.Duplicated%3 != 0 {
		t.Fatalf("duplicated %d not a multiple of the copy bound 3", st.Duplicated)
	}
	if got := int64(len(h.pkts)); got != 1000+st.Duplicated {
		t.Fatalf("delivered %d, want %d", got, 1000+st.Duplicated)
	}
	// A duplicated frame arrives 1+copies times, never more: the copy
	// count bounds the blast radius per packet.
	seen := map[int64]int{}
	for _, p := range h.pkts {
		seen[p.Seq]++
	}
	dups := 0
	for seq, c := range seen {
		if c != 1 && c != 4 {
			t.Fatalf("seq %d delivered %d times, want 1 or 1+copies", seq, c)
		}
		dups += c - 1
	}
	if int64(dups) != st.Duplicated {
		t.Fatalf("%d duplicate frames delivered, stats say %d", dups, st.Duplicated)
	}
}

func TestPortImpairReorder(t *testing.T) {
	for _, egress := range []bool{false, true} {
		name := "ingress"
		if egress {
			name = "egress"
		}
		t.Run(name, func(t *testing.T) {
			n, a, b, up := portImpairNet(t)
			imp := up.Impair(egress)
			imp.SetReorder(0.1, 500*sim.Microsecond, sim.NewRNG(3))
			h := sendN(n, a, b, 500)
			st := imp.Stats()
			if st.Reordered == 0 {
				t.Fatal("no reordering injected")
			}
			if len(h.pkts) != 500 {
				t.Fatalf("delivered %d, want all 500 (reordered, not lost)", len(h.pkts))
			}
			inversions := 0
			for i := 1; i < len(h.pkts); i++ {
				if h.pkts[i].Seq < h.pkts[i-1].Seq {
					inversions++
				}
			}
			if inversions == 0 {
				t.Fatal("no sequence inversions observed")
			}
			if st.Held != 0 {
				t.Fatalf("hold buffer retains %d packets after drain", st.Held)
			}
		})
	}
}

// TestPortImpairReorderFIFOWithinEqualRelease pins the hold buffer's
// release order: every packet held (p=1) for an identical delay (hold=1
// draws Int63n(1)+1 = 1 always) must come out in hold order — the engine
// fires same-instant releases FIFO by scheduling time.
func TestPortImpairReorderFIFOWithinEqualRelease(t *testing.T) {
	n, a, b, up := portImpairNet(t)
	imp := up.Impair(false)
	imp.SetReorder(1.0, 1, sim.NewRNG(4))
	h := sendN(n, a, b, 300)
	st := imp.Stats()
	if st.Reordered != 300 {
		t.Fatalf("held %d packets, want all 300", st.Reordered)
	}
	if len(h.pkts) != 300 {
		t.Fatalf("delivered %d, want 300", len(h.pkts))
	}
	for i := 1; i < len(h.pkts); i++ {
		if h.pkts[i].Seq < h.pkts[i-1].Seq {
			t.Fatalf("equal-release holds delivered out of order at %d: %d after %d",
				i, h.pkts[i].Seq, h.pkts[i-1].Seq)
		}
	}
	if st.Held != 0 {
		t.Fatalf("hold buffer retains %d packets", st.Held)
	}
}

func TestPortImpairJitterDelays(t *testing.T) {
	base := func() int64 {
		n, a, b, _ := portImpairNet(t)
		sendN(n, a, b, 200)
		return n.Eng.Now()
	}()
	n, a, b, up := portImpairNet(t)
	imp := up.Impair(false)
	imp.SetJitter(UniformDelay{Lo: 100 * sim.Microsecond, Hi: 300 * sim.Microsecond}, sim.NewRNG(5))
	h := sendN(n, a, b, 200)
	st := imp.Stats()
	if st.Jittered != 200 {
		t.Fatalf("jittered %d packets, want all 200", st.Jittered)
	}
	if len(h.pkts) != 200 {
		t.Fatalf("delivered %d, want 200", len(h.pkts))
	}
	if st.Held != 0 {
		t.Fatalf("hold buffer retains %d packets", st.Held)
	}
	if n.Eng.Now() <= base {
		t.Fatalf("jittered run finished at %d ns, no later than unimpaired %d ns", n.Eng.Now(), base)
	}
}

func TestPortImpairRateLimit(t *testing.T) {
	n, a, b, up := portImpairNet(t)
	imp := up.Impair(true)
	imp.SetRate(100e6, 3000) // 100 Mb/s through a 1 Gb/s port, 2-MTU burst
	h := sendN(n, a, b, 100)
	if len(h.pkts) != 100 {
		t.Fatalf("delivered %d, want 100 (shaped, not dropped)", len(h.pkts))
	}
	st := imp.Stats()
	if st.RateLimited == 0 || st.RateDelayNs == 0 {
		t.Fatalf("no pacing observed: %+v", st)
	}
	// 100 packets x 158 B at 100 Mb/s ~ 12.6 ms wire time; the burst
	// forgives the first ~2 packets. The unshapeed drain is ~0.13 ms.
	want := int64(100) * 158 * 8 * sim.Second / 100e6
	if now := n.Eng.Now(); now < want*8/10 || now > want*12/10 {
		t.Fatalf("shaped drain took %d ns, want ~%d ns", now, want)
	}
}

func TestPortImpairRateLimitIngressPanics(t *testing.T) {
	_, _, _, up := portImpairNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic arming a rate limit at the ingress stage")
		}
	}()
	up.Impair(false).SetRate(1e6, 0)
}

func TestPortImpairRequiresRNG(t *testing.T) {
	_, _, _, up := portImpairNet(t)
	imp := up.Impair(false)
	for name, arm := range map[string]func(){
		"corrupt":   func() { imp.SetCorrupt(0.1, 0, nil) },
		"duplicate": func() { imp.SetDuplicate(0.1, 1, nil) },
		"reorder":   func() { imp.SetReorder(0.1, 0, nil) },
		"jitter":    func() { imp.SetJitter(UniformDelay{Hi: 1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: armed without an RNG", name)
				}
			}()
			arm()
		}()
	}
}

func TestPortImpairDeterminism(t *testing.T) {
	run := func() []int64 {
		n, a, b, up := portImpairNet(t)
		imp := up.Impair(false)
		imp.SetCorrupt(0.05, 0.5, sim.NewRNG(7))
		imp.SetDuplicate(0.1, 2, sim.NewRNG(8))
		imp.SetReorder(0.1, 300*sim.Microsecond, sim.NewRNG(9))
		h := sendN(n, a, b, 400)
		seqs := make([]int64, len(h.pkts))
		for i, p := range h.pkts {
			seqs[i] = p.Seq
		}
		return seqs
	}
	one, two := run(), run()
	if len(one) != len(two) {
		t.Fatalf("runs delivered %d vs %d packets", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("delivery order diverges at %d: %d vs %d", i, one[i], two[i])
		}
	}
}

// --- jitter distribution conformance (10k samples, KS-style bounds) ---

// checkCDF compares the empirical CDF of samples at each (x, p) knot
// within ~4 sigma of Binomial(n, p), floored for the tails — the bound
// the storm CDF conformance tests use.
// A kind that was armed and then cleared draws nothing, at either stage:
// faults relies on this to leave every random stream outside a fault
// window untouched.
func TestPortImpairDisarmedDrawsNothing(t *testing.T) {
	n, a, b, up := portImpairNet(t)
	var rngs []*sim.RNG
	seeded := func() *sim.RNG {
		r := sim.NewRNG(int64(len(rngs) + 1))
		rngs = append(rngs, r)
		return r
	}
	for _, egress := range []bool{false, true} {
		imp := up.Impair(egress)
		cr, dr, rr, jr := seeded(), seeded(), seeded(), seeded()
		imp.SetCorrupt(0.5, 0.5, cr)
		imp.SetDuplicate(0.5, 1, dr)
		imp.SetReorder(0.5, sim.Microsecond, rr)
		imp.SetJitter(UniformDelay{Lo: 0, Hi: sim.Microsecond}, jr)
		// Cleared but still holding their RNGs, so a draw would show.
		imp.SetCorrupt(0, 0, cr)
		imp.SetDuplicate(0, 0, dr)
		imp.SetReorder(0, 0, rr)
		imp.SetJitter(nil, jr)
	}
	if h := sendN(n, a, b, 100); len(h.pkts) != 100 {
		t.Fatalf("delivered %d, want 100", len(h.pkts))
	}
	for i, r := range rngs {
		if got, want := r.Uint64(), sim.NewRNG(int64(i+1)).Uint64(); got != want {
			t.Fatalf("rng %d drew while its kind was clear", i+1)
		}
	}
}

func checkCDF(t *testing.T, name string, samples []int64, xs []int64, ps []float64) {
	t.Helper()
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	for i, x := range xs {
		at := sort.Search(len(sorted), func(j int) bool { return sorted[j] > x })
		got := float64(at) / n
		p := ps[i]
		tol := 4 * math.Sqrt(p*(1-p)/n)
		if tol < 0.01 {
			tol = 0.01
		}
		if diff := got - p; diff < -tol || diff > tol {
			t.Errorf("%s knot %d (x=%d): empirical CDF %.4f, want %.4f +/- %.4f", name, i, x, got, p, tol)
		}
	}
}

func drawMany(d DelayDist, n int, seed int64) []int64 {
	rng := sim.NewRNG(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Draw(rng)
	}
	return out
}

func TestUniformDelayConformance(t *testing.T) {
	lo, hi := int64(100), int64(1100)
	d := UniformDelay{Lo: lo, Hi: hi}
	samples := drawMany(d, 10000, 1)
	var xs []int64
	var ps []float64
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		xs = append(xs, lo+int64(p*float64(hi-lo)))
		ps = append(ps, p)
	}
	checkCDF(t, "uniform", samples, xs, ps)
	for _, s := range samples {
		if s < lo || s > hi {
			t.Fatalf("sample %d outside [%d, %d]", s, lo, hi)
		}
	}
}

func TestNormalDelayConformance(t *testing.T) {
	mean, sigma := int64(10000), int64(1000)
	d := NormalDelay{Mean: mean, Sigma: sigma}
	samples := drawMany(d, 10000, 2)
	// Standard-normal CDF values at z = -2..2; the Irwin-Hall approximation
	// is within ~2e-3 of the true CDF over this range.
	zs := []float64{-2, -1, 0, 1, 2}
	phis := []float64{0.0228, 0.1587, 0.5, 0.8413, 0.9772}
	var xs []int64
	for _, z := range zs {
		xs = append(xs, mean+int64(z*float64(sigma)))
	}
	checkCDF(t, "normal", samples, xs, phis)
	max := mean + 4*sigma
	for _, s := range samples {
		if s < 0 || s > max {
			t.Fatalf("sample %d outside [0, %d]", s, max)
		}
	}
}

func TestParetoDelayConformance(t *testing.T) {
	scale, max := int64(1000), int64(100000)
	shape := 1.5
	d := ParetoDelay{Shape: shape, Scale: scale, Max: max}
	samples := drawMany(d, 10000, 3)
	// F(x) = 1 - (scale/x)^shape for scale <= x < max (truncation piles the
	// tail mass on max itself, so knots stay well below it).
	var xs []int64
	var ps []float64
	for _, m := range []float64{1.2, 2, 4, 8, 16} {
		x := int64(m * float64(scale))
		xs = append(xs, x)
		ps = append(ps, 1-math.Pow(float64(scale)/float64(x), shape))
	}
	checkCDF(t, "pareto", samples, xs, ps)
	for _, s := range samples {
		if s < scale || s > max {
			t.Fatalf("sample %d outside [%d, %d]", s, scale, max)
		}
	}
}

// FuzzReorderBuffer drives the hold-and-release buffer with arbitrary
// probability/hold/traffic shapes and asserts its two invariants: every
// hold is released (nothing lost, nothing retained) and every packet is
// delivered exactly once.
func FuzzReorderBuffer(f *testing.F) {
	f.Add(int64(1), uint16(100), byte(128), uint16(500))
	f.Add(int64(2), uint16(1), byte(255), uint16(1))
	f.Add(int64(3), uint16(300), byte(1), uint16(10000))
	f.Add(int64(4), uint16(50), byte(255), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, count uint16, prob byte, holdUs uint16) {
		n := int(count%500) + 1
		p := (float64(prob) + 1) / 256
		hold := int64(holdUs)*sim.Microsecond + 1
		net := NewNetwork()
		a := net.NewHost("a")
		b := net.NewHost("b")
		sw := net.NewSwitch("sw")
		net.LinkHostSwitch(a, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
		net.LinkHostSwitch(b, sw, &unboundedQ{}, &unboundedQ{}, 1e9, sim.Microsecond)
		imp := a.Uplink().Impair(false)
		imp.SetReorder(p, hold, sim.NewRNG(seed))
		h := sendN(net, a, b, n)
		if len(h.pkts) != n {
			t.Fatalf("delivered %d of %d packets", len(h.pkts), n)
		}
		seen := map[int64]bool{}
		for _, pk := range h.pkts {
			if seen[pk.Seq] {
				t.Fatalf("packet %d delivered twice", pk.Seq)
			}
			seen[pk.Seq] = true
		}
		if st := imp.Stats(); st.Held != 0 {
			t.Fatalf("hold buffer retains %d packets after drain", st.Held)
		}
	})
}
