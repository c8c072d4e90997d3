package stats

import "math"

// Point is a single (x, y) sample of a time series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered list of points with non-decreasing X. The trace
// analysis code resamples per-run sequence-number curves into Series on a
// common grid so they can be averaged across iterations, mirroring the
// "Average" curves of the paper's Figures 11-14.
type Series []Point

// Interp returns the linearly interpolated Y value of s at x. Outside the
// domain it clamps to the first/last Y. An empty series returns NaN.
func (s Series) Interp(x float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if x <= s[0].X {
		return s[0].Y
	}
	if x >= s[n-1].X {
		return s[n-1].Y
	}
	// Binary search for the bracketing segment.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s[mid].X <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := s[lo], s[hi]
	if b.X == a.X {
		return b.Y
	}
	frac := (x - a.X) / (b.X - a.X)
	return a.Y*(1-frac) + b.Y*frac
}

// MaxX returns the largest X in s, or NaN if empty.
func (s Series) MaxX() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1].X
}

// AverageSeries resamples every input series onto a common uniform grid
// spanning [0, max over series of MaxX] and returns the pointwise mean.
// Series that end before the grid point are clamped at their final value,
// which reproduces the flattening the paper notes at the tail of its
// averaged direct-TCP curve (Figure 14): finished runs hold their final
// sequence number while slower runs continue.
func AverageSeries(all []Series, gridN int) Series {
	if len(all) == 0 {
		return nil
	}
	var xmax float64
	for _, s := range all {
		if m := s.MaxX(); !math.IsNaN(m) && m > xmax {
			xmax = m
		}
	}
	if gridN < 2 {
		gridN = 2
	}
	out := make(Series, gridN)
	for i := 0; i < gridN; i++ {
		x := xmax * float64(i) / float64(gridN-1)
		var sum float64
		var cnt int
		for _, s := range all {
			y := s.Interp(x)
			if !math.IsNaN(y) {
				sum += y
				cnt++
			}
		}
		y := math.NaN()
		if cnt > 0 {
			y = sum / float64(cnt)
		}
		out[i] = Point{X: x, Y: y}
	}
	return out
}
