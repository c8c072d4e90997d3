package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("got %v, want %v (tol %v)", got, want, tol)
	}
}

func TestMeanBasic(t *testing.T) {
	almost(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12)
}

func TestMeanSingle(t *testing.T) {
	almost(t, Mean([]float64{7}), 7, 1e-12)
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty should be NaN")
	}
}

func TestSum(t *testing.T) {
	almost(t, Sum([]float64{1.5, 2.5}), 4, 1e-12)
	almost(t, Sum(nil), 0, 1e-12)
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	almost(t, Min(xs), -1, 0)
	almost(t, Max(xs), 5, 0)
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty min/max should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} with n-1 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Variance(xs), 32.0/7.0, 1e-12)
}

func TestVarianceDegenerate(t *testing.T) {
	almost(t, Variance([]float64{42}), 0, 0)
	if !math.IsNaN(Variance(nil)) {
		t.Fatal("variance of empty should be NaN")
	}
}

func TestStdDevConstant(t *testing.T) {
	almost(t, StdDev([]float64{5, 5, 5, 5}), 0, 1e-12)
}

func TestMedianOdd(t *testing.T) {
	almost(t, Median([]float64{9, 1, 5}), 5, 1e-12)
}

func TestMedianEven(t *testing.T) {
	almost(t, Median([]float64{1, 2, 3, 10}), 2.5, 1e-12)
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30}
	almost(t, Percentile(xs, 0), 10, 0)
	almost(t, Percentile(xs, 100), 30, 0)
	almost(t, Percentile(xs, 50), 20, 0)
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	almost(t, Percentile(xs, 25), 2.5, 1e-12)
}

func TestPercentileClamps(t *testing.T) {
	xs := []float64{1, 2}
	almost(t, Percentile(xs, -5), 1, 0)
	almost(t, Percentile(xs, 200), 2, 0)
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	almost(t, mean, 5.5, 1e-12)
	if hw <= 0 {
		t.Fatalf("half-width should be positive, got %v", hw)
	}
	_, hw1 := MeanCI([]float64{3})
	almost(t, hw1, 0, 0)
}

func TestArgMinMax(t *testing.T) {
	xs := []float64{5, 2, 8, 2}
	if ArgMin(xs) != 1 {
		t.Fatalf("ArgMin = %d", ArgMin(xs))
	}
	if ArgMax(xs) != 2 {
		t.Fatalf("ArgMax = %d", ArgMax(xs))
	}
	if ArgMin(nil) != -1 || ArgMax(nil) != -1 {
		t.Fatal("empty should give -1")
	}
}

func TestArgMedianPicksActualElement(t *testing.T) {
	xs := []float64{10, 3, 7, 1, 9}
	i := ArgMedian(xs)
	if xs[i] != 7 {
		t.Fatalf("ArgMedian picked %v, want 7", xs[i])
	}
}

func TestArgMedianEven(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	i := ArgMedian(xs)
	if xs[i] != 2 { // lower median of {1,2,3,4}
		t.Fatalf("ArgMedian picked %v, want 2", xs[i])
	}
}

// Property: for any sample, Min <= Percentile(p) <= Max and percentiles are
// monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := Percentile(xs, p1)
		v2 := Percentile(xs, p2)
		return v1 <= v2+1e-9 && v1 >= Min(xs)-1e-9 && v2 <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile agrees with direct sorting at rank points.
func TestPercentileRankPointsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		for i := 0; i < n; i++ {
			p := 100 * float64(i) / float64(max(n-1, 1))
			got := Percentile(xs, p)
			if math.Abs(got-sorted[i]) > 1e-9 {
				t.Fatalf("trial %d: percentile(%v)=%v want %v", trial, p, got, sorted[i])
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
