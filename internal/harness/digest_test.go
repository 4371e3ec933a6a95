package harness

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fnvOf is the oracle: hash/fnv's FNV-64a over the bytes a Digest is
// defined to fold.
func fnvOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// digestWords are the words the oracle test folds: random ones, ones
// that are mostly zero bytes, and the float bit patterns a printed
// approximation would blur (-0, NaN payloads, ±Inf).
func digestWords(rng *rand.Rand) []uint64 {
	ws := []uint64{
		0, 1, 0xff, 0x100, 1 << 63, math.MaxUint64,
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0x7fffffffffffffff,
	}
	for i := 0; i < 64; i++ {
		ws = append(ws, rng.Uint64(), uint64(rng.Intn(256))<<(8*rng.Intn(8)))
	}
	return ws
}

// TestDigestMatchesHashFNV pins the digest's value: every method folds
// exactly the FNV-64a of its words' little-endian bytes, length prefixes
// included, so the value is FNV-64a itself and not merely some stable hash.
func TestDigestMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := digestWords(rng)
	le := binary.LittleEndian.AppendUint64
	for _, w := range ws {
		want := fnvOf(le(nil, w))
		for name, fold := range map[string]func(*Digest){
			"Uint64":  func(d *Digest) { d.Uint64(w) },
			"Int64":   func(d *Digest) { d.Int64(int64(w)) },
			"Int":     func(d *Digest) { d.Int(int(w)) },
			"Float64": func(d *Digest) { d.Float64(math.Float64frombits(w)) },
		} {
			d := NewDigest()
			fold(d)
			if d.Sum() != want {
				t.Fatalf("%s(%#x) = %016x, hash/fnv reads %016x", name, w, d.Sum(), want)
			}
		}
	}

	for n := 0; n <= len(ws); n += 7 {
		vs := make([]float64, n)
		ts := make([]int64, n)
		fb, sb := le(nil, uint64(n)), le(nil, uint64(n))
		for i := range vs {
			vs[i] = math.Float64frombits(ws[i])
			ts[i] = int64(ws[len(ws)-1-i])
			fb = le(fb, ws[i])
			sb = le(le(sb, uint64(ts[i])), ws[i])
		}
		d := NewDigest()
		if d.Floats(vs); d.Sum() != fnvOf(fb) {
			t.Fatalf("Floats of %d values = %016x, hash/fnv reads %016x", n, d.Sum(), fnvOf(fb))
		}
		d = NewDigest()
		if d.Series(ts, vs); d.Sum() != fnvOf(sb) {
			t.Fatalf("Series of %d samples = %016x, hash/fnv reads %016x", n, d.Sum(), fnvOf(sb))
		}
	}

	for _, s := range []string{"", "a", "TCP-HWATCH", strings.Repeat("\x00", 9) + "\xff"} {
		d := NewDigest()
		if d.String(s); d.Sum() != fnvOf(append(le(nil, uint64(len(s))), s...)) {
			t.Fatalf("String(%q) differs from hash/fnv", s)
		}
	}

	// Folds chain: one digest over several calls is the hash of their
	// bytes end to end.
	d := NewDigest()
	d.String("x")
	d.Float64(math.Inf(-1))
	d.Floats([]float64{1, -0.5})
	b := append(le(nil, 1), 'x')
	b = le(b, math.Float64bits(math.Inf(-1)))
	b = le(le(le(b, 2), math.Float64bits(1)), math.Float64bits(-0.5))
	if d.Sum() != fnvOf(b) {
		t.Fatalf("chained folds = %016x, hash/fnv reads %016x", d.Sum(), fnvOf(b))
	}
}

// TestSeriesLanesMatchSeries: folding series side by side gives each
// digest the value Series gives it alone, for 0 to 9 lanes, lengths that
// match and lengths that do not, and empty series. Every lane starts from
// a different state, so a lane that picked up a neighbour's input or sum
// shows.
func TestSeriesLanesMatchSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := digestWords(rng)
	series := func(n int) ([]int64, []float64) {
		ts, vs := make([]int64, n), make([]float64, n)
		for i := range ts {
			ts[i] = int64(words[rng.Intn(len(words))])
			vs[i] = math.Float64frombits(words[rng.Intn(len(words))])
		}
		return ts, vs
	}
	for lanes := 0; lanes <= 9; lanes++ {
		for _, lengths := range []func(k int) int{
			func(int) int { return 17 },
			func(int) int { return 0 },
			func(k int) int { return k % 3 * 5 }, // runs of unequal lengths
			func(k int) int { return []int{4, 4, 0, 4, 4, 4, 9, 9, 9}[k] },
			func(int) int { return rng.Intn(3) },
		} {
			ds, want := make([]Digest, lanes), make([]Digest, lanes)
			ts, vs := make([][]int64, lanes), make([][]float64, lanes)
			for k := range ds {
				ds[k] = *NewDigest()
				ds[k].Uint64(rng.Uint64())
				want[k] = ds[k]
				ts[k], vs[k] = series(lengths(k))
				want[k].Series(ts[k], vs[k])
			}
			SeriesLanes(ds, ts, vs)
			for k := range ds {
				if ds[k] != want[k] {
					t.Fatalf("%d lanes, lane %d (length %d): SeriesLanes %016x, Series %016x", lanes, k, len(ts[k]), ds[k].Sum(), want[k].Sum())
				}
			}
		}
	}
}

// TestSeriesRefusesUnequalLengths: a series with more values than times,
// or fewer, panics naming both lengths, alone and in lanes, where the fold
// used to leave the extra values out of the digest or fail on a bare
// index error.
func TestSeriesRefusesUnequalLengths(t *testing.T) {
	for _, c := range []struct {
		times, values int
		want          string
	}{
		{2, 3, "2 times and 3 values"},
		{3, 2, "3 times and 2 values"},
	} {
		ts, vs := make([]int64, c.times), make([]float64, c.values)
		for name, fold := range map[string]func(){
			"Series": func() { NewDigest().Series(ts, vs) },
			"SeriesLanes": func() {
				SeriesLanes(make([]Digest, 2), [][]int64{make([]int64, c.times), ts}, [][]float64{make([]float64, c.times), vs})
			},
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.want) {
						t.Errorf("%s of %d times and %d values: panic %q, want one naming %q", name, c.times, c.values, msg, c.want)
					}
				}()
				fold()
			}()
		}
	}
}
