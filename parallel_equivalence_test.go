package mcdc_test

// The WithParallelism determinism contract (see options.go): for a fixed
// seed, every parallelism level must produce bit-for-bit identical output.
// These tests pin that contract on real benchmark data sets — they are the
// equivalence gate the CI workflow runs under the race detector.

import (
	"math/rand"
	"reflect"
	"testing"

	"mcdc"
	"mcdc/internal/encoding"
	"mcdc/internal/experiments"
	"mcdc/internal/linkage"
	"mcdc/internal/similarity"
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

// TestKMeansParallelismEquivalence pins the parallelized Lloyd sweeps of the
// one-hot baseline: for a fixed seed, k-means labels must be bit-for-bit
// identical at parallelism 1, 2, and GOMAXPROCS (each point's nearest center
// is computed independently; reductions and rng draws stay sequential).
func TestKMeansParallelismEquivalence(t *testing.T) {
	ds := mcdc.SyntheticDataset("kmeq", 600, 12, 4, 3)
	points, err := encoding.OneHot(ds.Rows, ds.Cardinalities())
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []int {
		labels, err := encoding.KMeans(points, encoding.KMeansConfig{
			K:       4,
			Rand:    rand.New(rand.NewSource(9)),
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	seq := run(1)
	for _, workers := range []int{2, 0} {
		if par := run(workers); !equalIntSlices(seq, par) {
			t.Errorf("kmeans labels differ between parallelism 1 and %d", workers)
		}
	}
}

// TestLinkageParallelismEquivalence pins the parallelized nearest-pair scans
// of dendrogram merging on a real benchmark data set.
func TestLinkageParallelismEquivalence(t *testing.T) {
	ds, err := mcdc.Builtin("Vot.", 1)
	if err != nil {
		t.Fatal(err)
	}
	cond := linkage.HammingCondensedWorkers(ds.Rows, 0)
	seq, err := linkage.BuildCondensedWorkers(cond, linkage.Average, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		par, err := linkage.BuildCondensedWorkers(cond, linkage.Average, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Merges, par.Merges) {
			t.Fatalf("dendrogram differs between parallelism 1 and %d", workers)
		}
		if !equalIntSlices(seq.Cut(2), par.Cut(2)) {
			t.Fatalf("cut labels differ between parallelism 1 and %d", workers)
		}
	}
}

// TestChainLinkageEquivalence pins the O(n²) nearest-neighbour-chain path —
// the production linkage engine — against the O(n³) scan oracle on a real
// benchmark data set (Vot.: 16 binary features, so its normalized Hamming
// distances are massively tied AND sit on an exact binary grid, where the
// scan/chain identity is exact for every method): canonically identical
// merges and heights, identical CutK partitions, at parallelism 1, 2 and
// GOMAXPROCS.
func TestChainLinkageEquivalence(t *testing.T) {
	ds, err := mcdc.Builtin("Vot.", 1)
	if err != nil {
		t.Fatal(err)
	}
	cond := linkage.HammingCondensedWorkers(ds.Rows, 0)
	for _, method := range []linkage.Method{linkage.Single, linkage.Complete, linkage.Average} {
		scan, err := linkage.BuildCondensedWorkers(cond, method, 1)
		if err != nil {
			t.Fatal(err)
		}
		oracle := scan.Canonical()
		for _, workers := range []int{1, 2, 0} {
			chain, err := linkage.BuildChainWorkers(cond, method, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oracle.Merges, chain.Merges) {
				t.Fatalf("%v: chain dendrogram (workers=%d) differs from the scan oracle", method, workers)
			}
			for _, k := range []int{2, 3, 5} {
				if !equalIntSlices(oracle.Cut(k), chain.Cut(k)) {
					t.Fatalf("%v: Cut(%d) differs between chain (workers=%d) and scan", method, k, workers)
				}
			}
		}
	}
}

// TestPackedPairwiseEquivalence pins the bit-packed popcount pairwise kernel
// against the unpacked per-feature oracle on a real benchmark data set and on
// synthetic mixes whose one-hot widths straddle the 64-bit word boundaries
// (1, 63, 64, 65 total bits): every condensed cell must be bit-for-bit
// identical at parallelism 1, 2, and GOMAXPROCS. Run under -race in CI
// alongside the other equivalence gates.
func TestPackedPairwiseEquivalence(t *testing.T) {
	sets := map[string][][]int{}
	if ds, err := mcdc.Builtin("Vot.", 1); err == nil {
		sets["Vot."] = ds.Rows
	} else {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for name, card := range map[string][]int{
		"1bit":  {1},
		"63bit": {31, 32},
		"64bit": {31, 32, 1},
		"65bit": {31, 32, 2},
	} {
		rows := make([][]int, 80)
		for i := range rows {
			row := make([]int, len(card))
			for r, m := range card {
				if rng.Intn(10) == 0 {
					row[r] = -1 // categorical.Missing
				} else {
					row[r] = rng.Intn(m)
				}
			}
			rows[i] = row
		}
		sets[name] = rows
	}
	for name, rows := range sets {
		for _, workers := range []int{1, 2, 0} {
			packed := similarity.PairwiseCondensed(rows, workers)
			oracle := similarity.PairwiseCondensedUnpacked(rows, workers)
			for i := 0; i < len(rows); i++ {
				for j := i + 1; j < len(rows); j++ {
					if got, want := packed.At(i, j), oracle.At(i, j); got != want {
						t.Fatalf("%s workers=%d: packed (%d,%d) = %v, unpacked = %v",
							name, workers, i, j, got, want)
					}
				}
			}
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
