// Package stats provides the measurement machinery behind the paper's
// figures: exact empirical CDFs for FCT and goodput, Jain's fairness
// index, sampled time series (queue occupancy, utilization), and rate
// meters.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Sample is an accumulating collection of float64 observations with exact
// quantiles (values are retained).
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Values returns the observations sorted ascending (callers must not
// mutate).
func (s *Sample) Values() []float64 {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Var returns the population variance (0 if fewer than 2 samples).
func (s *Sample) Var() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		d := v - m
		sum += d * d
	}
	return sum / float64(n)
}

// Std returns the population standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.Values()[0]
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.Values()
	return v[len(v)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	v := s.Values()
	if len(v) == 0 {
		return 0
	}
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo]*(1-frac) + v[lo+1]*frac
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability
}

// CDF returns the empirical distribution as (value, P(val <= value)) steps,
// downsampled to at most maxPoints (0 = all points).
func (s *Sample) CDF(maxPoints int) []CDFPoint {
	v := s.Values()
	n := len(v)
	if n == 0 {
		return nil
	}
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		stride = n / maxPoints
	}
	var out []CDFPoint
	for i := 0; i < n; i += stride {
		out = append(out, CDFPoint{X: v[i], P: float64(i+1) / float64(n)})
	}
	if out[len(out)-1].P != 1 {
		out = append(out, CDFPoint{X: v[n-1], P: 1})
	}
	return out
}

// Summary renders a one-line digest.
func (s *Sample) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.3g%s p50=%.3g p99=%.3g max=%.3g",
		s.N(), s.Mean(), unit, s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// JainIndex computes Jain's fairness index over the values: 1 = perfectly
// fair, 1/n = maximally unfair. Used to quantify the coexistence study's
// unfairness (Fig. 2).
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1 // all zeros: degenerate but not unfair
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// TimeSeries is a sequence of (t, v) samples, appended in time order.
type TimeSeries struct {
	T []int64
	V []float64
}

// Add appends one point; t must be nondecreasing.
func (ts *TimeSeries) Add(t int64, v float64) {
	if len(ts.T) > 0 && t < ts.T[len(ts.T)-1] {
		panic("stats: time series must be appended in order")
	}
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Grow makes room for n more points without reallocating.
func (ts *TimeSeries) Grow(n int) {
	ts.T = slices.Grow(ts.T, n)
	ts.V = slices.Grow(ts.V, n)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// Mean returns the unweighted mean of the values.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ts.V {
		sum += v
	}
	return sum / float64(len(ts.V))
}

// Max returns the largest value (0 if empty).
func (ts *TimeSeries) Max() float64 {
	out := 0.0
	for i, v := range ts.V {
		if i == 0 || v > out {
			out = v
		}
	}
	return out
}

// After returns the sub-series with t >= cut (shares backing arrays).
func (ts *TimeSeries) After(cut int64) *TimeSeries {
	i := sort.Search(len(ts.T), func(i int) bool { return ts.T[i] >= cut })
	return &TimeSeries{T: ts.T[i:], V: ts.V[i:]}
}

// CSV renders the series as "t_ns,value" lines.
func (ts *TimeSeries) CSV() string {
	var b strings.Builder
	for i := range ts.T {
		fmt.Fprintf(&b, "%d,%g\n", ts.T[i], ts.V[i])
	}
	return b.String()
}
