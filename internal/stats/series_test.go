package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInterpInside(t *testing.T) {
	s := Series{{0, 0}, {10, 100}}
	almost(t, s.Interp(5), 50, 1e-12)
	almost(t, s.Interp(2.5), 25, 1e-12)
}

func TestInterpClampsOutside(t *testing.T) {
	s := Series{{1, 10}, {2, 20}}
	almost(t, s.Interp(0), 10, 0)
	almost(t, s.Interp(3), 20, 0)
}

func TestInterpEmptyNaN(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Interp(1)) {
		t.Fatal("want NaN")
	}
}

func TestInterpExactPoints(t *testing.T) {
	s := Series{{0, 1}, {1, 4}, {2, 9}, {3, 16}}
	for _, p := range s {
		almost(t, s.Interp(p.X), p.Y, 1e-12)
	}
}

func TestInterpDuplicateX(t *testing.T) {
	s := Series{{0, 0}, {1, 5}, {1, 7}, {2, 7}}
	got := s.Interp(1)
	if got < 5-1e-9 || got > 7+1e-9 {
		t.Fatalf("duplicate-x interp out of range: %v", got)
	}
}

func TestMaxX(t *testing.T) {
	s := Series{{0, 0}, {4, 1}}
	almost(t, s.MaxX(), 4, 0)
	var e Series
	if !math.IsNaN(e.MaxX()) {
		t.Fatal("want NaN")
	}
}

func TestAverageSeriesIdentical(t *testing.T) {
	a := Series{{0, 0}, {2, 4}}
	avg := AverageSeries([]Series{a, a, a}, 5)
	almost(t, avg.Interp(1), 2, 1e-9)
	almost(t, avg.Interp(2), 4, 1e-9)
}

func TestAverageSeriesTwoLines(t *testing.T) {
	a := Series{{0, 0}, {2, 2}}
	b := Series{{0, 0}, {2, 6}}
	avg := AverageSeries([]Series{a, b}, 5)
	almost(t, avg.Interp(2), 4, 1e-9)
}

// The paper's Figure 14 flattening effect: a finished (short) run clamps at
// its final value while a longer run continues, so the average's tail slope
// drops but stays nonnegative.
func TestAverageSeriesClampTail(t *testing.T) {
	short := Series{{0, 0}, {1, 10}}
	long := Series{{0, 0}, {4, 10}}
	avg := AverageSeries([]Series{short, long}, 9)
	// At x=4: short clamps at 10, long at 10 -> avg 10.
	almost(t, avg[len(avg)-1].Y, 10, 1e-9)
	// At x=1: short=10, long=2.5 -> 6.25.
	almost(t, avg.Interp(1), 6.25, 1e-9)
	// Monotone nondecreasing.
	for i := 1; i < len(avg); i++ {
		if avg[i].Y < avg[i-1].Y-1e-9 {
			t.Fatalf("average not monotone at %d: %v < %v", i, avg[i].Y, avg[i-1].Y)
		}
	}
}

func TestAverageSeriesEmpty(t *testing.T) {
	if AverageSeries(nil, 5) != nil {
		t.Fatal("want nil")
	}
}

// Property: interpolation of a monotone series is monotone and bounded.
func TestInterpMonotoneProperty(t *testing.T) {
	f := func(ys []uint16, q1, q2 uint16) bool {
		if len(ys) < 2 {
			return true
		}
		s := make(Series, len(ys))
		acc := 0.0
		for i, y := range ys {
			acc += float64(y % 100)
			s[i] = Point{X: float64(i), Y: acc}
		}
		x1 := float64(q1) / 65535 * s.MaxX()
		x2 := float64(q2) / 65535 * s.MaxX()
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1, v2 := s.Interp(x1), s.Interp(x2)
		return v1 <= v2+1e-9 && v1 >= s[0].Y-1e-9 && v2 <= s[len(s)-1].Y+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
