package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample not all-zero")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("n=%d mean=%f", s.N(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%f max=%f", s.Min(), s.Max())
	}
	if got := s.Var(); got != 2 {
		t.Fatalf("var=%f want 2", got)
	}
	if got := s.Std(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("std=%f", got)
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	_ = s.Values() // forces a sort
	s.Add(2)       // must re-sort on next query
	v := s.Values()
	if !sort.Float64sAreSorted(v) {
		t.Fatalf("values not sorted after interleaved Add: %v", v)
	}
}

func TestQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0=%f", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1=%f", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Fatalf("median=%f want 50.5", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-99.01) > 0.1 {
		t.Fatalf("p99=%f", q)
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(0)
	if len(cdf) != 1000 {
		t.Fatalf("full CDF has %d points", len(cdf))
	}
	if cdf[len(cdf)-1].P != 1 {
		t.Fatal("CDF does not end at 1")
	}
	small := s.CDF(50)
	if len(small) > 60 {
		t.Fatalf("downsampled CDF has %d points", len(small))
	}
	if small[len(small)-1].P != 1 {
		t.Fatal("downsampled CDF does not end at 1")
	}
	for i := 1; i < len(small); i++ {
		if small[i].P < small[i-1].P || small[i].X < small[i-1].X {
			t.Fatal("CDF not monotone")
		}
	}
	if (&Sample{}).CDF(10) != nil {
		t.Fatal("empty CDF not nil")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n)+1; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 0 {
		t.Fatal("empty")
	}
	if v := JainIndex([]float64{5, 5, 5, 5}); math.Abs(v-1) > 1e-12 {
		t.Fatalf("equal shares: %f", v)
	}
	// One flow hogs everything: index -> 1/n.
	if v := JainIndex([]float64{10, 0, 0, 0}); math.Abs(v-0.25) > 1e-12 {
		t.Fatalf("hog: %f", v)
	}
	mid := JainIndex([]float64{8, 2, 2, 2})
	if mid <= 0.25 || mid >= 1 {
		t.Fatalf("mid = %f", mid)
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("all-zero degenerate case")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(0, 1)
	ts.Add(10, 3)
	ts.Add(20, 5)
	if ts.Len() != 3 || ts.Mean() != 3 || ts.Max() != 5 {
		t.Fatalf("len=%d mean=%f max=%f", ts.Len(), ts.Mean(), ts.Max())
	}
	after := ts.After(10)
	if after.Len() != 2 || after.V[0] != 3 {
		t.Fatalf("After: %+v", after)
	}
	csv := ts.CSV()
	if !strings.Contains(csv, "10,3\n") || strings.Count(csv, "\n") != 3 {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	var ts TimeSeries
	ts.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-order Add")
		}
	}()
	ts.Add(5, 2)
}

func TestRateMeter(t *testing.T) {
	var m RateMeter
	m.Observe(0, 0)
	m.Observe(1e9, 125_000_000) // 125 MB in 1 s = 1 Gb/s
	m.Observe(2e9, 250_000_000) // another 1 Gb/s window
	if m.Series.Len() != 2 {
		t.Fatalf("windows = %d", m.Series.Len())
	}
	if r := m.MeanRate(); math.Abs(r-1e9) > 1 {
		t.Fatalf("mean rate = %f", r)
	}
	// Same-timestamp observation must not divide by zero.
	m.Observe(2e9, 260_000_000)
	if m.Series.Len() != 2 {
		t.Fatal("zero-width window recorded")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(7)
	if c.Value() != 12 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestSummaryString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	out := s.Summary("ms")
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "ms") {
		t.Fatalf("summary = %q", out)
	}
}
