package core

import (
	"math"
	"math/rand"
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
)

// TestMGCPLAgreesWithHierarchicalClustering validates the paper's §I claim
// that MGCPL is an efficient alternative to hierarchical clustering: on data
// with crisp nested structure, MGCPL's coarsest partition and an
// average-linkage dendrogram cut at the same k must largely agree.
func TestMGCPLAgreesWithHierarchicalClustering(t *testing.T) {
	ds := datasets.Synthetic("t", 240, 8, 3, 0.95, rand.New(rand.NewSource(90)))

	mg, err := RunMGCPL(ds.Rows, ds.Cardinalities(), MGCPLConfig{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	final := mg.Final()

	cut := averageLinkageCut(ds.Rows, final.K)
	ari, err := metrics.AdjustedRandIndex(cut, final.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.6 {
		t.Errorf("MGCPL vs average-linkage agreement ARI = %v, want ≥ 0.6 (k=%d)", ari, final.K)
	}
	// Both should also align with the planted clusters.
	ariTruth, err := metrics.AdjustedRandIndex(ds.Labels, final.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ariTruth < 0.6 {
		t.Errorf("MGCPL vs planted clusters ARI = %v, want ≥ 0.6", ariTruth)
	}
}

// averageLinkageCut is the hierarchical clustering MGCPL is compared with,
// written out naively in O(n³): average linkage over normalized Hamming
// distance (a Missing cell matches nothing), merging the closest pair of
// clusters, ties to the lowest pair, until k clusters remain. It returns
// each row's cluster.
func averageLinkageCut(rows [][]int, k int) []int {
	n, d := len(rows), len(rows[0])
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			differ := 0
			for r := 0; r < d; r++ {
				if rows[i][r] != rows[j][r] || rows[i][r] == categorical.Missing {
					differ++
				}
			}
			dist[i][j] = float64(differ) / float64(d)
		}
	}
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	for len(clusters) > k {
		bi, bj, best := 0, 0, math.Inf(1)
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				var sum float64
				for _, a := range clusters[i] {
					for _, b := range clusters[j] {
						sum += dist[a][b]
					}
				}
				if avg := sum / float64(len(clusters[i])*len(clusters[j])); avg < best {
					bi, bj, best = i, j, avg
				}
			}
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	labels := make([]int, n)
	for c, members := range clusters {
		for _, i := range members {
			labels[i] = c
		}
	}
	return labels
}

// TestHierarchyParentIsPlurality checks the defining property of the
// multi-granular hierarchy: each fine cluster's parent is the coarse cluster
// (one level up) that absorbs the plurality of its objects. Unlike a
// dendrogram, MGCPL's levels are independent analyses, so strict containment
// is not guaranteed — plurality linkage is.
func TestHierarchyParentIsPlurality(t *testing.T) {
	ds := datasets.Synthetic("t", 300, 8, 4, 0.9, rand.New(rand.NewSource(91)))
	mg, err := RunMGCPL(ds.Rows, ds.Cardinalities(), MGCPLConfig{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if mg.Sigma() < 2 {
		t.Skip("need at least two granularity levels")
	}
	h := mg.BuildHierarchy()
	for li := 0; li+1 < len(mg.Levels); li++ {
		fine, coarse := mg.Levels[li], mg.Levels[li+1]
		for c := 0; c < fine.K; c++ {
			node := h.Node(li, c)
			if node == nil {
				t.Fatalf("missing node L%d c%d", li, c)
			}
			parent := h.Nodes[node.Parent].Cluster
			votes := make(map[int]int)
			for i := range fine.Labels {
				if fine.Labels[i] == c {
					votes[coarse.Labels[i]]++
				}
			}
			for other, v := range votes {
				if v > votes[parent] {
					t.Errorf("L%d cluster %d: parent %d has %d votes but cluster %d has %d",
						li, c, parent, votes[parent], other, v)
				}
			}
		}
	}
}
