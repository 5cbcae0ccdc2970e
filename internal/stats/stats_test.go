package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{3}); got != 0 {
		t.Errorf("StdDev(single) = %v, want 0", got)
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	res, err := Wilcoxon(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 || res.NUsed != 0 {
		t.Errorf("identical samples: p = %v, nUsed = %d; want 1, 0", res.PValue, res.NUsed)
	}
}

func TestWilcoxonLengthMismatch(t *testing.T) {
	if _, err := Wilcoxon([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestWilcoxonExactKnownValue(t *testing.T) {
	// All differences positive with distinct magnitudes, n = 6:
	// W- = 0, and P(min(W+,W-) ≤ 0) = 2/2^6 = 0.03125.
	x := []float64{10, 20, 30, 40, 50, 60}
	y := []float64{9, 18, 27, 36, 45, 54}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("n=6 must use the exact distribution")
	}
	if res.W != 0 {
		t.Errorf("W = %v, want 0", res.W)
	}
	if math.Abs(res.PValue-0.03125) > 1e-12 {
		t.Errorf("p = %v, want 0.03125", res.PValue)
	}
}

func TestWilcoxonSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		a, err := Wilcoxon(x, y)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Wilcoxon(y, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.PValue-b.PValue) > 1e-12 || a.W != b.W {
			t.Fatalf("test not symmetric: %+v vs %+v", a, b)
		}
		if a.WPlus != b.WMinus || a.WMinus != b.WPlus {
			t.Fatalf("rank sums must swap under argument swap: %+v vs %+v", a, b)
		}
	}
}

func TestWilcoxonPValueRange(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30) // crosses the exact/approximate boundary at 20
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = math.Floor(rng.Float64()*10) / 10 // induce ties and zeros
			y[i] = math.Floor(rng.Float64()*10) / 10
		}
		res, err := Wilcoxon(x, y)
		return err == nil && res.PValue >= 0 && res.PValue <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWilcoxonNormalApproxNearExact(t *testing.T) {
	// At n = 20 (the boundary), the normal approximation should agree with
	// the exact enumeration to within a small absolute error.
	rng := rand.New(rand.NewSource(77))
	n := 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 0.3
	}
	exact, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("want exact path at n=20")
	}
	// Force the approximation by extending to 21 pairs with one tie pair
	// (dropped, so the same 20 differences are used).
	x21 := append(append([]float64(nil), x...), 1.0)
	y21 := append(append([]float64(nil), y...), 1.0)
	approxInput, err := Wilcoxon(x21, y21)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.PValue-approxInput.PValue) > 0.02 {
		t.Errorf("normal approximation p = %v, exact p = %v; want within 0.02",
			approxInput.PValue, exact.PValue)
	}
}

func TestSignificantlyGreater(t *testing.T) {
	// x dominates y on every pair by a consistent margin.
	x := []float64{0.9, 0.8, 0.85, 0.95, 0.7, 0.9, 0.88, 0.92}
	y := []float64{0.5, 0.4, 0.45, 0.55, 0.3, 0.5, 0.48, 0.52}
	better, res, err := SignificantlyGreater(x, y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !better {
		t.Errorf("x clearly dominates y, want significance (p=%v)", res.PValue)
	}
	// Reversed direction must not report significance for x.
	better, _, err = SignificantlyGreater(y, x, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if better {
		t.Error("y does not dominate x, yet reported significant")
	}
}
