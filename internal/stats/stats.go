// Package stats provides the small statistical toolkit used throughout the
// LSL reproduction: location and spread estimators over repeated experiment
// runs, percentiles, confidence intervals, and resampling of time series
// onto common grids so that per-run traces can be averaged the way the
// paper averages sequence-number growth curves.
//
// All functions operate on plain float64 slices and never mutate their
// inputs unless documented otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned (or causes NaN results) when an estimator that needs
// at least one sample is given none.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest element of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for a single sample and NaN for an empty slice.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	v := Variance(xs)
	if math.IsNaN(v) {
		return v
	}
	return math.Sqrt(v)
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice
// and clamps p into [0,100].
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI returns the sample mean of xs together with the half-width of an
// approximate 95% confidence interval (1.96 standard errors). With fewer
// than two samples the half-width is 0.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, 1.96 * se
}

// ArgMin returns the index of the smallest element of xs, or -1 if empty.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element of xs, or -1 if empty.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMedian returns the index of the element of xs closest to the median
// from below (the lower median element itself), or -1 if empty. This is the
// selection rule used for the paper's "median observed number of
// retransmissions" trace figures: pick an actual run, not an interpolation.
func ArgMedian(xs []float64) int {
	n := len(xs)
	if n == 0 {
		return -1
	}
	type kv struct {
		i int
		v float64
	}
	s := make([]kv, n)
	for i, x := range xs {
		s[i] = kv{i, x}
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].v != s[b].v {
			return s[a].v < s[b].v
		}
		return s[a].i < s[b].i
	})
	return s[(n-1)/2].i
}
