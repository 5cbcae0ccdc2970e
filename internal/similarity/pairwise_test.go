package similarity

import (
	"math/rand"
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/kmodes"
)

// randomRows draws value codes in [0, card) and, when missingRate > 0,
// replaces some of them with the Missing sentinel.
func randomRows(n, d, card int, missingRate float64, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, d)
		for r := range rows[i] {
			if missingRate > 0 && rng.Float64() < missingRate {
				rows[i][r] = categorical.Missing
				continue
			}
			rows[i][r] = rng.Intn(card)
		}
	}
	return rows
}

func TestRowMatches(t *testing.T) {
	a := []int{0, 1, 2, categorical.Missing, categorical.Missing}
	b := []int{0, 2, 2, categorical.Missing, 1}
	// Missing never matches — not even another Missing — matching the
	// repository-wide kmodes.Hamming convention.
	if got := RowMatches(a, b); got != 2 {
		t.Errorf("RowMatches = %d, want 2", got)
	}
	if got, want := RowMatches(a, b), len(a)-kmodes.Hamming(a, b); got != want {
		t.Errorf("RowMatches = %d, but d - kmodes.Hamming = %d", got, want)
	}
}

// TestDissimilarityMatchesKModesHamming pins DissimilarityCondensed (and
// hence linkage.HammingCondensed, which delegates here) to the exact
// normalized kmodes.Hamming values, missing codes included.
func TestDissimilarityMatchesKModesHamming(t *testing.T) {
	rows := randomRows(50, 9, 3, 0.15, 21)
	d := DissimilarityCondensed(rows, 0)
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			want := float64(kmodes.Hamming(rows[i], rows[j])) / float64(len(rows[i]))
			if d.At(i, j) != want {
				t.Fatalf("d(%d,%d) = %v, want %v", i, j, d.At(i, j), want)
			}
		}
		if d.At(i, i) != 0 {
			t.Fatalf("diagonal d(%d,%d) = %v", i, i, d.At(i, i))
		}
	}
}

func TestPairwiseMatrixProperties(t *testing.T) {
	rows := randomRows(60, 8, 4, 0.1, 1)
	s := PairwiseCondensed(rows, 1)
	d := DissimilarityCondensed(rows, 1)
	dim := len(rows[0])
	for i := range rows {
		// Diagonal convention: self-similarity 1, self-dissimilarity 0 —
		// even for rows containing Missing.
		if s.At(i, i) != 1 || d.At(i, i) != 0 {
			t.Fatalf("diagonal at %d: sim=%v dissim=%v", i, s.At(i, i), d.At(i, i))
		}
		for j := range rows {
			if i == j {
				continue
			}
			m := RowMatches(rows[i], rows[j])
			if want := float64(m) / float64(dim); s.At(i, j) != want {
				t.Fatalf("s(%d,%d) = %v, want %v", i, j, s.At(i, j), want)
			}
			if want := float64(dim-m) / float64(dim); d.At(i, j) != want {
				t.Fatalf("d(%d,%d) = %v, want %v", i, j, d.At(i, j), want)
			}
		}
	}
}

// TestPairwiseMatrixParallelEquivalence checks that the tiled parallel fill
// is cell-for-cell identical to the sequential one.
func TestPairwiseMatrixParallelEquivalence(t *testing.T) {
	rows := randomRows(173, 11, 5, 0.1, 7) // awkward size: uneven chunks
	seq := PairwiseCondensed(rows, 1)
	for _, workers := range []int{2, 3, 8, 0} {
		par := PairwiseCondensed(rows, workers)
		for s := range seq.data {
			if seq.data[s] != par.data[s] {
				i, j := pairAt(len(rows), s)
				t.Fatalf("workers=%d: cell (%d,%d): %v != %v", workers, i, j, par.data[s], seq.data[s])
			}
		}
	}
}

func TestPairwiseMatrixEmpty(t *testing.T) {
	if got := PairwiseCondensed(nil, 4); got.N() != 0 {
		t.Errorf("empty input: got a %d×%d matrix", got.N(), got.N())
	}
}
