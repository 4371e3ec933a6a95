package binpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"neg unmarked": func() { Batcher{}.Split(-1, 0) },
		"neg marked":   func() { Batcher{}.Split(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBatcherThreeBatches(t *testing.T) {
	b := Batcher{}
	p := b.Split(10, 6)
	if len(p.Sizes()) != 3 {
		t.Fatalf("unmerged plan has %d batches, want 3 (Cor IV.2.1)", len(p.Sizes()))
	}
	if p.Sizes()[0] != 10 || p.Sizes()[1] != 3 || p.Sizes()[2] != 3 {
		t.Fatalf("plan %v, want [10 3 3]", p.Sizes())
	}
	if p.Total() != 16 {
		t.Fatalf("total %d", p.Total())
	}
}

func TestBatcherMerged(t *testing.T) {
	b := Batcher{MergeFirstTwo: true}
	p := b.Split(10, 6)
	if len(p.Sizes()) != 2 || p.Sizes()[0] != 13 || p.Sizes()[1] != 3 {
		t.Fatalf("merged plan %v, want [13 3] (Cor IV.2.2)", p.Sizes())
	}
}

func TestBatcherOddMarkedCoin(t *testing.T) {
	// With X_M odd, the extra packet must land in either half ~50/50.
	rng := rand.New(rand.NewSource(5))
	b := Batcher{Rand: rng.Float64}
	firstBigger := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		p := b.Split(0, 7)
		switch {
		case p.Sizes()[1] == 4 && p.Sizes()[2] == 3:
			firstBigger++
		case p.Sizes()[1] == 3 && p.Sizes()[2] == 4:
		default:
			t.Fatalf("bad split %v", p.Sizes())
		}
	}
	frac := float64(firstBigger) / trials
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("coin bias: %.3f", frac)
	}
}

// Property: Split conserves packets and each marked half is within one of
// X_M/2 (Theorem IV.2).
func TestPropertySplitConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(um, m uint8, merge bool) bool {
		b := Batcher{MergeFirstTwo: merge, Rand: rng.Float64}
		p := b.Split(int(um), int(m))
		if p.Total() != int(um)+int(m) {
			return false
		}
		last := p.Sizes()[len(p.Sizes())-1]
		return last >= int(m)/2 && last <= (int(m)+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStartWindowMapping(t *testing.T) {
	cautious := Batcher{MinBatch: 1} // default credit 0
	cautiousCases := []struct {
		probes, marked, icw, want int
	}{
		{10, 0, 10, 10}, // clean path: stock initial window
		{10, 10, 10, 1}, // fully marked: floor at one segment
		{10, 4, 10, 6},  // 6 unmarked probes -> 6 segments
		{10, 9, 10, 1},  // 1 unmarked -> 1 segment
		{0, 0, 10, 10},  // no probes: no information, stock behaviour
		{10, 12, 10, 1}, // marked over-count clamps to probes
		{5, 5, 10, 1},   // all marked
	}
	for _, c := range cautiousCases {
		if got := cautious.StartWindow(c.probes, c.marked, c.icw); got != c.want {
			t.Errorf("cautious StartWindow(%d,%d,%d) = %d, want %d",
				c.probes, c.marked, c.icw, got, c.want)
		}
	}

	merged := Batcher{MinBatch: 1, StartMarkedCredit: 0.5} // Cor IV.2.2 credit
	mergedCases := []struct {
		probes, marked, icw, want int
	}{
		{10, 0, 10, 10}, // clean path unchanged
		{10, 10, 10, 5}, // fully marked: X_M/2 of the ICW
		{10, 4, 10, 8},  // 6 unmarked + 2 (half of 4)
		{5, 5, 10, 5},   // (0 + 2.5)/5*10 = 5
	}
	for _, c := range mergedCases {
		if got := merged.StartWindow(c.probes, c.marked, c.icw); got != c.want {
			t.Errorf("merged StartWindow(%d,%d,%d) = %d, want %d",
				c.probes, c.marked, c.icw, got, c.want)
		}
	}
}

// Property: StartWindow is monotone non-increasing in marked probes and
// always within [1, ICW].
func TestPropertyStartWindowMonotone(t *testing.T) {
	b := Batcher{MinBatch: 1}
	f := func(probesRaw, icwRaw uint8) bool {
		probes := 1 + int(probesRaw%20)
		icw := 1 + int(icwRaw%20)
		prev := 1 << 30
		for m := 0; m <= probes; m++ {
			w := b.StartWindow(probes, m, icw)
			if w < 1 || w > icw || w > prev {
				return false
			}
			prev = w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// splitSink keeps the compiler from discarding the benchmarked call.
var splitSink int

// TestSplitAllocatesNothing: Split runs once per congested epoch of every
// regulated flow, so its Plan is a plain value with no backing slice.
func TestSplitAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, b := range []Batcher{{Rand: rng.Float64}, {MergeFirstTwo: true, MinBatch: 1, Rand: rng.Float64}} {
		if n := testing.AllocsPerRun(1000, func() {
			p := b.Split(9, 7)
			splitSink += p.Sizes()[0] + p.Total()
		}); n != 0 {
			t.Fatalf("Split(merge=%v) allocates %.0f times per call, want 0", b.MergeFirstTwo, n)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	bt := Batcher{MergeFirstTwo: true, MinBatch: 1, Rand: rng.Float64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := bt.Split(i&15, i&7)
		splitSink += p.Sizes()[0]
	}
}
