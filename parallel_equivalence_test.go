package mcdc_test

// The WithParallelism determinism contract (see options.go): for a fixed
// seed, every parallelism level must produce bit-for-bit identical output.
// These tests pin that contract on real benchmark data sets — they are the
// equivalence gate the CI workflow runs under the race detector.

import (
	"reflect"
	"testing"

	"mcdc"
	"mcdc/internal/experiments"
)

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClusterParallelismEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k        int
		ensemble int // 0 keeps the default, 3 repeats
		workers  []int
	}{
		{"Vot.", 2, 0, []int{2, 8, 0}},
		{"Bal.", 3, 0, []int{2, 8, 0}},
		// Five repeats on 2 or 3 workers take turns: 2 or 3 of the 5
		// compute at once, whatever GOMAXPROCS is.
		{"Vot.", 2, 5, []int{2, 3}},
		{"Bal.", 3, 5, []int{2, 3}},
	} {
		ds, err := mcdc.Builtin(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := []mcdc.Option{mcdc.WithSeed(7), mcdc.WithEnsemble(tc.ensemble)}
		seq, err := mcdc.Cluster(ds, tc.k, append(opts, mcdc.WithParallelism(1))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			par, err := mcdc.Cluster(ds, tc.k, append(opts, mcdc.WithParallelism(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(seq.Labels, par.Labels) {
				t.Errorf("%s: labels differ between parallelism 1 and %d", tc.name, workers)
			}
			if !equalIntSlices(seq.MultiGranular.Kappa, par.MultiGranular.Kappa) {
				t.Errorf("%s: kappa differs between parallelism 1 and %d: %v vs %v",
					tc.name, workers, seq.MultiGranular.Kappa, par.MultiGranular.Kappa)
			}
			if len(seq.Theta) != len(par.Theta) {
				t.Fatalf("%s: theta length differs", tc.name)
			}
			for r := range seq.Theta {
				if seq.Theta[r] != par.Theta[r] {
					t.Errorf("%s: theta[%d] differs between parallelism 1 and %d: %v vs %v",
						tc.name, r, workers, seq.Theta[r], par.Theta[r])
				}
			}
		}
	}
}

func TestExploreParallelismEquivalence(t *testing.T) {
	ds, err := mcdc.Builtin("Car.", 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := mcdc.Explore(ds, mcdc.WithSeed(11), mcdc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := mcdc.Explore(ds, mcdc.WithSeed(11), mcdc.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !equalIntSlices(seq.Kappa, par.Kappa) {
		t.Fatalf("kappa differs: %v vs %v", seq.Kappa, par.Kappa)
	}
	for j := range seq.Levels {
		if !equalIntSlices(seq.Levels[j], par.Levels[j]) {
			t.Fatalf("level %d labels differ between parallelism 1 and 8", j)
		}
	}
}

// TestExperimentsFanoutEquivalence pins the per-dataset fan-out of the
// experiments harness: the Table-III cells must be bit-for-bit identical at
// parallelism 1, 2, and GOMAXPROCS.
func TestExperimentsFanoutEquivalence(t *testing.T) {
	run := func(workers int) *experiments.Table3 {
		t3, err := experiments.RunTable3(experiments.Table3Config{
			Runs:     2,
			Seed:     3,
			Datasets: []string{"Vot.", "Bal."},
			Methods:  []string{"K-MODES", "WOCIL"},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return t3
	}
	seq := run(1)
	for _, workers := range []int{2, 0} {
		par := run(workers)
		if !reflect.DeepEqual(seq.Cells, par.Cells) {
			t.Errorf("Table III cells differ between parallelism 1 and %d", workers)
		}
	}
}

// TestEnsembleParallelismEquivalence pins the ensemble fan-out specifically:
// the pooled encoding's sub-seed derivation must make repeats independent of
// scheduling.
func TestEnsembleParallelismEquivalence(t *testing.T) {
	ds := mcdc.SyntheticDataset("eq", 400, 8, 3, 5)
	seq, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(2), mcdc.WithEnsemble(4), mcdc.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(2), mcdc.WithEnsemble(4), mcdc.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !equalIntSlices(seq.Labels, par.Labels) {
		t.Fatal("ensemble labels differ between parallelism 1 and 8")
	}
}
