package similarity

import (
	"math"
	"math/rand"
	"testing"
)

// refIndex is the brute-force flat index of (i, j>i): the number of
// upper-triangle entries strictly before it in row-major order.
func refIndex(n, i, j int) int {
	idx := 0
	for r := 0; r < i; r++ {
		idx += n - r - 1
	}
	return idx + (j - i - 1)
}

// TestCondensedIndexMath pins the O(1) offset arithmetic to the brute-force
// count for every (i, j) pair across a range of sizes — including the
// boundary rows i = 0 and j = n−1 the packing formula is easiest to get
// wrong on.
func TestCondensedIndexMath(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 17, 64} {
		c := NewCondensed(n, 0)
		if c.Pairs() != n*(n-1)/2 {
			t.Fatalf("n=%d: Pairs() = %d, want %d", n, c.Pairs(), n*(n-1)/2)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := c.offset(i, j), refIndex(n, i, j); got != want {
					t.Fatalf("n=%d: offset(%d,%d) = %d, want %d", n, i, j, got, want)
				}
				if got, want := c.offset(j, i), refIndex(n, i, j); got != want {
					t.Fatalf("n=%d: offset(%d,%d) = %d, want %d (swapped args)", n, j, i, got, want)
				}
			}
		}
		// pairAt must be the exact inverse on every flat slot.
		for s := 0; s < c.Pairs(); s++ {
			i, j := pairAt(n, s)
			if i < 0 || j <= i || j >= n || c.offset(i, j) != s {
				t.Fatalf("n=%d: pairAt(%d) = (%d,%d), offset back = %d", n, s, i, j, c.offset(i, j))
			}
		}
	}
}

// TestCondensedAtSetBoundaries exercises the documented edge cases: the
// corners (0, n−1), the diagonal, and the degenerate n = 1 and n = 0
// matrices that store nothing.
func TestCondensedAtSetBoundaries(t *testing.T) {
	c := NewCondensed(5, 1)
	c.Set(0, 4, 0.25) // first row, last column
	c.Set(4, 3, 0.75) // swapped order hits the last stored slot
	c.Set(2, 2, 1)    // diagonal write of the diagonal value is a no-op
	if c.At(4, 0) != 0.25 {
		t.Errorf("At(4,0) = %v, want 0.25", c.At(4, 0))
	}
	if c.At(3, 4) != 0.75 {
		t.Errorf("At(3,4) = %v, want 0.75", c.At(3, 4))
	}
	if c.At(2, 2) != 1 {
		t.Errorf("At(2,2) = %v, want the diagonal 1", c.At(2, 2))
	}

	defer func() {
		if recover() == nil {
			t.Error("Set on the diagonal with a non-diagonal value: want panic")
		}
	}()

	one := NewCondensed(1, 1)
	if one.Pairs() != 0 {
		t.Fatalf("n=1: Pairs() = %d, want 0", one.Pairs())
	}
	if one.At(0, 0) != 1 {
		t.Fatalf("n=1: At(0,0) = %v, want diagonal 1", one.At(0, 0))
	}
	if zero := NewCondensed(0, 0); zero.N() != 0 || zero.Pairs() != 0 {
		t.Fatal("n=0: want an empty condensed matrix")
	}

	c.Set(1, 1, 0.5) // must panic: cannot represent a non-constant diagonal
}

// TestPairwiseCondensedMatchesBruteForce pins the condensed fill to an
// independent per-pair computation at several worker counts (the tiled fill
// must be value-identical at any parallelism level).
func TestPairwiseCondensedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d := 57, 9
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, d)
		for r := range rows[i] {
			rows[i][r] = rng.Intn(4)
		}
	}
	seq := PairwiseCondensed(rows, 1)
	seqD := DissimilarityCondensed(rows, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := RowMatches(rows[i], rows[j])
			if got, want := seq.At(i, j), float64(m)/float64(d); got != want {
				t.Fatalf("similarity (%d,%d) = %v, want %v", i, j, got, want)
			}
			if got, want := seqD.At(i, j), float64(d-m)/float64(d); got != want {
				t.Fatalf("dissimilarity (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	for _, workers := range []int{2, 3, 0} {
		par := PairwiseCondensed(rows, workers)
		for s := 0; s < seq.Pairs(); s++ {
			if par.data[s] != seq.data[s] {
				i, j := pairAt(n, s)
				t.Fatalf("workers=%d: entry (%d,%d) differs: %v vs %v", workers, i, j, par.data[s], seq.data[s])
			}
		}
	}
}

// TestMeanPairwise pins the cohesion summary on hand-computable inputs.
func TestMeanPairwise(t *testing.T) {
	identical := [][]int{{1, 2}, {1, 2}, {1, 2}}
	if got := MeanPairwise(identical, 1); got != 1 {
		t.Errorf("identical rows: cohesion %v, want 1", got)
	}
	disjoint := [][]int{{0, 0}, {1, 1}}
	if got := MeanPairwise(disjoint, 1); got != 0 {
		t.Errorf("disjoint rows: cohesion %v, want 0", got)
	}
	if got := MeanPairwise([][]int{{3, 4}}, 1); got != 1 {
		t.Errorf("singleton: cohesion %v, want 1 by convention", got)
	}
	// {0,0} vs {0,1}: 1 of 2 features match -> pairwise 0.5.
	half := [][]int{{0, 0}, {0, 1}}
	if got := MeanPairwise(half, 1); got != 0.5 {
		t.Errorf("half-matching rows: cohesion %v, want 0.5", got)
	}
	// The streaming accumulation must be identical at any parallelism level
	// (per-tile sums fold in tile order) and match the condensed fill's mean.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int, 123)
	for i := range rows {
		rows[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(2)}
	}
	seq := MeanPairwise(rows, 1)
	for _, workers := range []int{2, 3, 0} {
		if got := MeanPairwise(rows, workers); got != seq {
			t.Errorf("workers=%d: cohesion %v, want %v", workers, got, seq)
		}
	}
	// The streaming value agrees with the materialized matrix's mean up to
	// summation-order rounding (tile-folded vs flat-order sums).
	if got := PairwiseCondensed(rows, 1).Mean(); math.Abs(got-seq) > 1e-12 {
		t.Errorf("Condensed.Mean = %v, streaming MeanPairwise = %v", got, seq)
	}
}

// TestUpperRowInto pins the copying row accessor against UpperRow: same
// values, caller-owned storage (mutating the copy must not touch the
// matrix), reuse of one scratch across rows, and the capacity contract.
func TestUpperRowInto(t *testing.T) {
	n := 7
	c := NewCondensed(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Set(i, j, float64(i*10+j))
		}
	}
	scratch := make([]float64, n-1)
	for i := 0; i < n; i++ {
		got := c.UpperRowInto(i, scratch)
		want := c.UpperRow(i)
		if len(got) != len(want) {
			t.Fatalf("row %d: length %d, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("row %d entry %d: %v, want %v", i, k, got[k], want[k])
			}
		}
		if len(got) > 0 {
			got[0] = -1
			if c.UpperRow(i)[0] == -1 {
				t.Fatal("UpperRowInto aliases the matrix backing array")
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("short destination: want panic")
		}
	}()
	c.UpperRowInto(0, make([]float64, 2))
}
