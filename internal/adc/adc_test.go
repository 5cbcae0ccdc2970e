package adc

import (
	"math/rand"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
)

func TestAdcMetricSymmetric(t *testing.T) {
	ds := datasets.Synthetic("t", 200, 5, 2, 0.9, rand.New(rand.NewSource(40)))
	m, err := buildMetric(ds.Rows, ds.Cardinalities())
	if err != nil {
		t.Fatal(err)
	}
	card := ds.Cardinalities()
	for r := 0; r < ds.D(); r++ {
		for a := 0; a < card[r]; a++ {
			if m.valueDist(r, a, a) != 0 {
				t.Errorf("diagonal not zero at feature %d value %d", r, a)
			}
			for b := 0; b < card[r]; b++ {
				if m.valueDist(r, a, b) != m.valueDist(r, b, a) {
					t.Errorf("asymmetric at (%d,%d,%d)", r, a, b)
				}
			}
		}
	}
}

func TestAdcRecovery(t *testing.T) {
	ds := datasets.Synthetic("t", 400, 8, 3, 0.92, rand.New(rand.NewSource(41)))
	best := 0.0
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: 3, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := metrics.Accuracy(ds.Labels, res.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if acc > best {
			best = acc
		}
	}
	if best < 0.85 {
		t.Errorf("best-of-5 ACC = %v, want ≥ 0.85", best)
	}
}

func TestAdcRepairKeepsSoughtK(t *testing.T) {
	// Balance-scale-like data (independent features) used to collapse ADC
	// clusters; the repair must keep k clusters alive.
	ds := datasets.BalanceScale()
	res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: 3, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, l := range res.Labels {
		distinct[l] = true
	}
	if len(distinct) != 3 {
		t.Errorf("got %d clusters, want 3 after repair", len(distinct))
	}
}

func TestAdcErrors(t *testing.T) {
	if _, err := Run(nil, nil, Config{K: 2, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := Run([][]int{{0, 1}}, []int{1, 2}, Config{K: 0, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := buildMetric([][]int{{0}}, []int{2}); err == nil {
		t.Error("single feature: want error")
	}
}
