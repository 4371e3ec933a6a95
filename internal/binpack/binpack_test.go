package binpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func genItems(rng *rand.Rand, n, cap int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = 1 + rng.Intn(cap)
	}
	return items
}

// packers under test, with their worst-case bin bounds relative to the
// volume lower bound (NF ≤ 2·OPT; FF/BF ≤ 2·OPT loosely; FFD ≤ 2·OPT).
var packers = map[string]func([]int, int) Result{
	"nextfit":  NextFit,
	"firstfit": FirstFit,
	"bestfit":  BestFit,
	"worstfit": WorstFit,
	"ffd":      FirstFitDecreasing,
}

func TestPackersSimple(t *testing.T) {
	items := []int{5, 5, 5, 5}
	for name, pack := range packers {
		r := pack(items, 10)
		if r.NumBins() != 2 {
			t.Errorf("%s: bins = %d, want 2", name, r.NumBins())
		}
	}
}

func TestNextFitClosesBins(t *testing.T) {
	// 6,5,6,5: NF gets 4 bins (never looks back); FF gets 4 too with cap
	// 10... use 6,4,6,4 cap 10: NF = [6,4],[6,4] = 2 bins.
	r := NextFit([]int{6, 4, 6, 4}, 10)
	if r.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", r.NumBins())
	}
	// 6,6,4,4: NF = [6],[6,4],[4] = 3 bins; FF = [6,4],[6,4] = 2.
	if n := NextFit([]int{6, 6, 4, 4}, 10).NumBins(); n != 3 {
		t.Fatalf("NextFit bins = %d, want 3", n)
	}
	if n := FirstFit([]int{6, 6, 4, 4}, 10).NumBins(); n != 2 {
		t.Fatalf("FirstFit bins = %d, want 2", n)
	}
}

func TestBestFitPrefersFullest(t *testing.T) {
	// Bins after 7, 5: fills 7 and 5. Item 3 fits both; BF puts it with 7.
	r := BestFit([]int{7, 5, 3}, 10)
	if r.NumBins() != 2 || r.Fill(0) != 10 {
		t.Fatalf("BestFit result %+v", r.Bins)
	}
}

func TestWorstFitPrefersEmptiest(t *testing.T) {
	// Bins after 7, 5: item 3 fits both; WF balances onto the 5-bin.
	r := WorstFit([]int{7, 5, 3}, 10)
	if r.NumBins() != 2 || r.Fill(1) != 8 {
		t.Fatalf("WorstFit result %+v", r.Bins)
	}
}

func TestFFDBeatsOrEqualsFF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		items := genItems(rng, 50, 100)
		if FirstFitDecreasing(items, 100).NumBins() > FirstFit(items, 100).NumBins()+1 {
			t.Fatalf("FFD much worse than FF on %v", items)
		}
	}
}

func TestFFDDoesNotMutateInput(t *testing.T) {
	items := []int{3, 9, 1, 7}
	FirstFitDecreasing(items, 10)
	if items[0] != 3 || items[1] != 9 || items[2] != 1 || items[3] != 7 {
		t.Fatal("FFD mutated its input")
	}
}

// Property: every packer conserves items, never overfills a bin, never
// leaves an empty bin, and respects its approximation bound vs. the volume
// lower bound.
func TestPropertyPackingInvariants(t *testing.T) {
	f := func(seed int64, n uint8, capRaw uint8) bool {
		cap := 1 + int(capRaw)
		rng := rand.New(rand.NewSource(seed))
		items := genItems(rng, int(n), cap)
		lb := LowerBound(items, cap)
		for name, pack := range packers {
			r := pack(items, cap)
			count := 0
			for i := range r.Bins {
				if len(r.Bins[i]) == 0 {
					t.Logf("%s: empty bin", name)
					return false
				}
				if r.Fill(i) > cap {
					t.Logf("%s: overfilled bin", name)
					return false
				}
				count += len(r.Bins[i])
			}
			if count != len(items) {
				t.Logf("%s: item count %d != %d", name, count, len(items))
				return false
			}
			if len(items) > 0 && r.NumBins() > 2*lb {
				t.Logf("%s: %d bins > 2x lower bound %d", name, r.NumBins(), lb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextFit preserves item order across bin boundaries (it is the
// only packer HWatch can use online: packets cannot be reordered).
func TestPropertyNextFitPreservesOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		items := genItems(rng, int(n), 50)
		r := NextFit(items, 50)
		var flat []int
		for _, b := range r.Bins {
			flat = append(flat, b...)
		}
		if len(flat) != len(items) {
			return false
		}
		for i := range flat {
			if flat[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero item":  func() { NextFit([]int{0}, 10) },
		"big item":   func() { FirstFit([]int{11}, 10) },
		"zero cap":   func() { BestFit([]int{1}, 0) },
		"neg counts": func() { Batcher{}.Split(-1, 0) },
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
