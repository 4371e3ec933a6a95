package harness

import (
	"fmt"
	"math"
)

// Digest folds a run's observable outcome — every queue sample, flow
// completion time, retransmit count, totals — into one FNV-64a hash, so
// two runs of the same spec can be compared byte-for-byte without
// retaining either run's series. Fold order matters and is fixed by the
// caller; scenario.Digests fixes it for a run.
//
// The value is FNV-64a over the little-endian bytes of every folded word,
// a length word ahead of each series and string. hash/fnv's New64a fed
// the same bytes is its test oracle.
type Digest struct {
	h uint64
}

// NewDigest returns an empty digest (FNV-64a offset basis).
func NewDigest() *Digest { return &Digest{h: fnvOffset64} }

// fold is FNV-64a's step over v's eight little-endian bytes, unrolled so
// that h stays in a register.
func fold(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	return (h ^ v>>56) * fnvPrime64
}

// Uint64 folds one 64-bit word, little-endian byte by byte.
func (d *Digest) Uint64(v uint64) { d.h = fold(d.h, v) }

// Int64 folds a signed word.
func (d *Digest) Int64(v int64) { d.Uint64(uint64(v)) }

// Int folds an int.
func (d *Digest) Int(v int) { d.Uint64(uint64(int64(v))) }

// Float64 folds the IEEE-754 bit pattern, so digests compare exact bits,
// not printed approximations.
func (d *Digest) Float64(v float64) { d.Uint64(math.Float64bits(v)) }

// Floats folds a whole series in order.
func (d *Digest) Floats(vs []float64) {
	h := fold(d.h, uint64(len(vs)))
	for _, v := range vs {
		h = fold(h, math.Float64bits(v))
	}
	d.h = h
}

// Series folds a timestamped series in order: its length, then each
// time and value. t and v must have the same length.
func (d *Digest) Series(t []int64, v []float64) {
	checkSeries(t, v)
	h := fold(d.h, uint64(len(t)))
	for i := range t {
		h = fold(h, uint64(t[i]))
		h = fold(h, math.Float64bits(v[i]))
	}
	d.h = h
}

// checkSeries panics unless a series has one value per time: a series
// whose lengths differ is a bug in the code that built it, and folding
// only the shorter of the two would drop samples from the digest.
func checkSeries(t []int64, v []float64) {
	if len(t) != len(v) {
		panic(fmt.Sprintf("harness: digest of a series with %d times and %d values", len(t), len(v)))
	}
}

// SeriesLanes folds t[i] and v[i] into ds[i] for every i, with the same
// values as calling ds[i].Series(t[i], v[i]) for each in turn. Up to four
// neighbouring series of one length are folded in lockstep, one byte step
// on every lane at a time, so that their independent multiply chains
// overlap; how the series fall into lanes never changes a value.
func SeriesLanes(ds []Digest, t [][]int64, v [][]float64) {
	for i := 0; i < len(ds); {
		j := i + 1
		for j < len(ds) && j-i < 4 && len(t[j]) == len(t[i]) {
			j++
		}
		if j-i == 1 {
			ds[i].Series(t[i], v[i])
		} else {
			lanes(ds[i:j], t[i:j], v[i:j])
		}
		i = j
	}
}

// lanes folds two to four series of one length in lockstep. A group of
// fewer than four fills the spare lanes with its last series and drops
// their sums.
func lanes(ds []Digest, t [][]int64, v [][]float64) {
	for k := range ds {
		checkSeries(t[k], v[k])
	}
	last := len(ds) - 1
	n := len(t[0])
	t0, t1, t2, t3 := t[0], t[min(1, last)][:n], t[min(2, last)][:n], t[min(3, last)][:n]
	v0, v1, v2, v3 := v[0][:n], v[min(1, last)][:n], v[min(2, last)][:n], v[min(3, last)][:n]
	h0, h1, h2, h3 := ds[0].h, ds[min(1, last)].h, ds[min(2, last)].h, ds[min(3, last)].h
	h0, h1, h2, h3 = fold4(h0, h1, h2, h3, uint64(n), uint64(n), uint64(n), uint64(n))
	for i := range t0 {
		h0, h1, h2, h3 = fold4(h0, h1, h2, h3, uint64(t0[i]), uint64(t1[i]), uint64(t2[i]), uint64(t3[i]))
		h0, h1, h2, h3 = fold4(h0, h1, h2, h3,
			math.Float64bits(v0[i]), math.Float64bits(v1[i]), math.Float64bits(v2[i]), math.Float64bits(v3[i]))
	}
	hs := [4]uint64{h0, h1, h2, h3}
	for k := range ds {
		ds[k].h = hs[k]
	}
}

// fold4 is fold on four independent lanes, unrolled a byte of every lane
// at a time, so that each multiply has three others in flight beside it.
func fold4(h0, h1, h2, h3, a0, a1, a2, a3 uint64) (uint64, uint64, uint64, uint64) {
	h0 = (h0 ^ a0&0xff) * fnvPrime64
	h1 = (h1 ^ a1&0xff) * fnvPrime64
	h2 = (h2 ^ a2&0xff) * fnvPrime64
	h3 = (h3 ^ a3&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>8&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>8&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>8&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>8&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>16&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>16&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>16&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>16&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>24&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>24&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>24&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>24&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>32&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>32&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>32&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>32&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>40&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>40&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>40&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>40&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>48&0xff) * fnvPrime64
	h1 = (h1 ^ a1>>48&0xff) * fnvPrime64
	h2 = (h2 ^ a2>>48&0xff) * fnvPrime64
	h3 = (h3 ^ a3>>48&0xff) * fnvPrime64
	h0 = (h0 ^ a0>>56) * fnvPrime64
	h1 = (h1 ^ a1>>56) * fnvPrime64
	h2 = (h2 ^ a2>>56) * fnvPrime64
	h3 = (h3 ^ a3>>56) * fnvPrime64
	return h0, h1, h2, h3
}

// String folds a label (length-prefixed, so "ab"+"c" != "a"+"bc").
func (d *Digest) String(s string) {
	h := fold(d.h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	d.h = h
}

// Sum returns the folded hash.
func (d *Digest) Sum() uint64 { return d.h }

// Hex renders the hash the way golden files and CLIs print it.
func (d *Digest) Hex() string { return fmt.Sprintf("%016x", d.h) }
