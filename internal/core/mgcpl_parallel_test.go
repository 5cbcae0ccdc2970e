package core

import (
	"math/rand"
	"testing"

	"mcdc/internal/similarity"
)

// TestRefreshWeightsParallelBranch forces the parallel branch of
// refreshWeights — parallel.Gate inlines it below k·d = 4096 elementary ops,
// which every benchmark dataset in the suite is under, so without this test
// the only multi-goroutine path through Tables.FeatureWeights would never run
// under the race detector. It builds a state big enough to pass the gate
// (k·d = 256·32 = 8192), populates every cluster, and checks the refreshed ω
// weights are bit-for-bit identical at workers 1 and 8.
func TestRefreshWeightsParallelBranch(t *testing.T) {
	const (
		n    = 2048
		d    = 32
		k    = 256
		card = 4
	)
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, d)
		for r := range rows[i] {
			rows[i][r] = rng.Intn(card)
		}
	}
	cards := make([]int, d)
	for r := range cards {
		cards[r] = card
	}

	ix, err := similarity.NewIndex(rows, cards)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *mgcplState {
		st := newMGCPLState(ix, k, DefaultLearningRate, defaultRivalThreshold,
			rand.New(rand.NewSource(3)), workers)
		// Assign every not-yet-seeded object round-robin so each cluster has
		// a non-trivial value distribution to weight.
		for i := range rows {
			if st.assign[i] >= 0 {
				continue
			}
			l := i % k
			st.assign[i] = l
			st.tables.Add(i, l)
		}
		st.refreshWeights()
		return st
	}

	seq := build(1)
	par := build(8)
	for l := range seq.omega {
		for r := range seq.omega[l] {
			if seq.omega[l][r] != par.omega[l][r] {
				t.Fatalf("omega[%d][%d] differs between workers 1 and 8: %v vs %v",
					l, r, seq.omega[l][r], par.omega[l][r])
			}
		}
	}
}
