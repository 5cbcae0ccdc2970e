package rock

import (
	"math/rand"
	"slices"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
)

func TestRockSeparatedClusters(t *testing.T) {
	ds := datasets.Synthetic("t", 400, 8, 3, 0.92, rand.New(rand.NewSource(12)))
	res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: 3, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(ds.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("ACC = %v, want ≥ 0.85 on well-separated data (clusters=%d)", acc, res.Clusters)
	}
}

func TestRockSamplingPath(t *testing.T) {
	// Force sampling with a small SampleSize; unsampled objects must still
	// all receive labels.
	ds := datasets.Synthetic("t", 600, 8, 3, 0.92, rand.New(rand.NewSource(13)))
	res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: 3, SampleSize: 150, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labels {
		if l < 0 {
			t.Fatalf("object %d unassigned after sampling", i)
		}
	}
	acc, err := metrics.Accuracy(ds.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("sampled ACC = %v, want ≥ 0.8", acc)
	}
}

func TestRockSparseLinksLeavesExtraClusters(t *testing.T) {
	// With θ close to 1 nothing is a neighbour, no links exist, and ROCK
	// cannot reach the sought k — the failure mode the paper reports. The
	// result must still be a valid labeling, just not with k clusters.
	ds := datasets.Synthetic("t", 60, 6, 2, 0.5, rand.New(rand.NewSource(14)))
	res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: 2, Theta: 0.99, Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters == 2 {
		t.Errorf("theta=0.99 leaves no usable links; the sought k=2 should be unreachable, got exactly 2 clusters")
	}
}

func TestRockErrors(t *testing.T) {
	if _, err := Run(nil, nil, Config{K: 2, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty data: want error")
	}
	if _, err := Run([][]int{{0}}, []int{1}, Config{K: 0, Rand: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := Run([][]int{{0}}, []int{1}, Config{K: 1}); err == nil {
		t.Error("nil rand: want error")
	}
}

func TestGoodnessPrefersDenselyLinkedPairs(t *testing.T) {
	// Hand-built link graph: objects 0-2 mutually linked (2 links each
	// pair via common neighbours), object 3 isolated.
	links := map[[2]int]int{
		{0, 1}: 2,
		{0, 2}: 2,
		{1, 2}: 2,
	}
	labels := agglomerate(4, links, 2, 0.5)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("linked triangle should merge: %v", labels)
	}
	if labels[3] == labels[0] {
		t.Errorf("isolated object must stay separate: %v", labels)
	}
}

// TestRockDeterministic runs ROCK five times at seed 1 and k* on Car., whose
// 1,728 rows take the sampling path, and on Bal., which is clustered whole.
// Both have many merges of equal goodness, so the labels hold still only if
// the merge heap orders its pairs totally rather than in map-iteration order.
func TestRockDeterministic(t *testing.T) {
	for _, info := range datasets.Table2() {
		if info.Name != "Car." && info.Name != "Bal." {
			continue
		}
		ds := info.Gen(rand.New(rand.NewSource(1)))
		var first []int
		for run := 0; run < 5; run++ {
			res, err := Run(ds.Rows, ds.Cardinalities(), Config{K: info.KStar, Rand: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = res.Labels
			} else if !slices.Equal(res.Labels, first) {
				t.Fatalf("%s: run %d labels differ from run 0's", info.Name, run)
			}
		}
	}
}
