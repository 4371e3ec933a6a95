package workload

import (
	"sort"

	"hwatch/internal/sim"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	Sample(rng *sim.RNG) int64
	// Mean returns the distribution's expected size (for load math).
	Mean() float64
}

// Empirical is an inverse-CDF sampler over (probability, size) knots with
// linear interpolation between them, as used for trace-derived workloads.
type Empirical struct {
	// P ascending in (0,1]; Size the flow size at that cumulative
	// probability. The first knot is implicitly extended from P=0.
	P    []float64
	Size []int64
}

// Sample implements SizeDist.
func (e Empirical) Sample(r *sim.RNG) int64 {
	u := r.Float64()
	i := sort.SearchFloat64s(e.P, u)
	if i >= len(e.P) {
		return e.Size[len(e.Size)-1]
	}
	if i == 0 {
		// Interpolate from (0, Size[0]).
		frac := u / e.P[0]
		return int64(float64(e.Size[0]) * maxFloat(frac, 1e-3))
	}
	frac := (u - e.P[i-1]) / (e.P[i] - e.P[i-1])
	lo, hi := float64(e.Size[i-1]), float64(e.Size[i])
	return int64(lo + frac*(hi-lo))
}

// Mean implements SizeDist (trapezoid over the knots).
func (e Empirical) Mean() float64 {
	total := 0.0
	prevP := 0.0
	prevS := float64(e.Size[0])
	for i := range e.P {
		s := float64(e.Size[i])
		total += (e.P[i] - prevP) * (prevS + s) / 2
		prevP, prevS = e.P[i], s
	}
	return total
}

// WebSearch returns the query-traffic flow-size distribution reported in
// the DCTCP paper (Alizadeh et al., Fig. 4 there): mostly small query and
// background flows with a heavy tail of multi-MB updates.
func WebSearch() Empirical {
	return Empirical{
		P:    []float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 1.0},
		Size: []int64{6e3, 13e3, 19e3, 33e3, 53e3, 133e3, 667e3, 1333e3, 3333e3, 6667e3, 20e6},
	}
}

// DataMining returns the VL2-style data-mining distribution (Greenberg et
// al.): ~80% of flows under 10 KB with a very heavy elephant tail.
func DataMining() Empirical {
	return Empirical{
		P:    []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0},
		Size: []int64{1e3, 2e3, 5e3, 10e3, 100e3, 1e6, 10e6, 100e6},
	}
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
