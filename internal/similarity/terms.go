package similarity

import "fmt"

// TermRows returns the number of rows of a term matrix: one per feature r and
// value slot v < stride. A matrix with cols columns has TermRows()·cols
// entries.
func (t *Tables) TermRows() int { return len(t.ix.card) * t.ix.stride }

// WriteTermColumn writes cluster l's per-value summands of Eq. (14) into
// column j of the value-major term matrix m with cols columns:
// m[(r*stride+v)*cols+j] = w[r]·count/seen, or 0 where seen is 0. Rows of
// values at or above a feature's cardinality are never read and are left as
// they are. The column stays valid until cluster l's counts or w change.
func (t *Tables) WriteTermColumn(m []float64, cols, j, l int, w []float64) {
	cl, sl, stride := t.count[l], t.seen[l], t.ix.stride
	for r, card := range t.ix.card {
		base, seen := r*stride, sl[r]
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
// cols = len(acc): one pass over the object's d rows of m, at the offsets
// the Index holds. For a column j written by WriteTermColumn(m, cols, j, l,
// w), acc[j] equals WeightedSumLOO(i, l, w, false) bit for bit: each column
// adds the same summands in the same order, r = 0..d−1, from +0.
//
// It panics, before any of m is read, if m has fewer than TermRows()·cols
// entries. NewIndex has checked every offset against the stride.
func (t *Tables) SumTermColumns(i int, m, acc []float64) {
	termSums(t.ix.row(i), t.TermRows(), m, acc)
}

// termSums checks that a term matrix with rows rows and len(acc) columns
// fits in m, and runs the kernel over the offsets, each below rows or
// negative: the SSE2 assembly of terms_amd64.s on amd64, sumTermsGo on every
// other architecture.
func termSums(offs []int32, rows int, m, acc []float64) {
	if len(m) < rows*len(acc) {
		panic(fmt.Sprintf("similarity: term matrix has %d entries, want %d", len(m), rows*len(acc)))
	}
	sumTerms(offs, m, acc)
}

// sumTermsGo is the term-sum kernel in Go, and the oracle of the assembly
// kernel: every column's sum starts from +0 and adds the term rows at the
// object's offsets, in feature order, skipping the negative (Missing) ones.
func sumTermsGo(offs []int32, m, acc []float64) {
	clear(acc)
	cols := len(acc)
	for _, o := range offs {
		if o < 0 {
			continue
		}
		for j, x := range m[int(o)*cols:][:cols] {
			acc[j] += x
		}
	}
}
