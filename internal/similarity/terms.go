package similarity

import (
	"fmt"

	"mcdc/internal/categorical"
)

// TermRows returns the number of rows of a term matrix: one per feature r and
// value slot v < stride. A matrix with cols columns has TermRows()·cols
// entries.
func (t *Tables) TermRows() int { return len(t.card) * t.stride }

// WriteTermColumn writes cluster l's per-value summands of Eq. (14) into
// column j of the value-major term matrix m with cols columns:
// m[(r*stride+v)*cols+j] = w[r]·count/seen, or 0 where seen is 0. Rows of
// values at or above a feature's cardinality are never read and are left as
// they are. The column stays valid until cluster l's counts or w change.
func (t *Tables) WriteTermColumn(m []float64, cols, j, l int, w []float64) {
	cl, sl := t.count[l], t.seen[l]
	for r, card := range t.card {
		base, seen := r*t.stride, sl[r]
		for v := 0; v < card; v++ {
			term := 0.0
			if seen > 0 {
				term = w[r] * float64(cl[base+v]) / float64(seen)
			}
			m[(base+v)*cols+j] = term
		}
	}
}

// SumTermColumns sets acc[j] = Σ_r m[(r*stride+x_ir)*cols+j] over object i's
// non-missing features r, for every column j of the term matrix m with
// cols = len(acc): one pass over the object's d rows of m. For a column j
// written by WriteTermColumn(m, cols, j, l, w), acc[j] equals
// WeightedSumLOO(i, l, w, false) bit for bit: each column adds the same
// summands in the same order, r = 0..d−1, from +0.
//
// It panics, before any of m is read, if m has fewer than TermRows()·cols
// entries or object i's row names a value outside [0, stride).
func (t *Tables) SumTermColumns(i int, m, acc []float64) {
	termSums(t.data[i], len(t.card), t.stride, m, acc)
}

// termSums checks that every term row the row names lies inside m and runs
// the kernel: the SSE2 assembly of terms_amd64.s on amd64, sumTermsGo on
// every other architecture.
func termSums(row []int, d, stride int, m, acc []float64) {
	if len(row) != d {
		panic(fmt.Sprintf("similarity: row width %d, want %d", len(row), d))
	}
	if len(m) < d*stride*len(acc) {
		panic(fmt.Sprintf("similarity: term matrix has %d entries, want %d", len(m), d*stride*len(acc)))
	}
	for r, v := range row {
		// One test for both bounds: Missing (−1) maps to 0, [0, stride) to
		// [1, stride], and everything else above stride.
		if uint(v-categorical.Missing) > uint(stride) {
			panic(fmt.Sprintf("similarity: feature %d value %d outside the stride %d", r, v, stride))
		}
	}
	sumTerms(row, stride, m, acc)
}

// sumTermsGo is the term-sum kernel in Go, and the oracle of the assembly
// kernel: every column's sum starts from +0 and adds the object's term rows
// in feature order.
func sumTermsGo(row []int, stride int, m, acc []float64) {
	clear(acc)
	cols := len(acc)
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		for j, x := range m[(r*stride+v)*cols:][:cols] {
			acc[j] += x
		}
	}
}
