package similarity

import (
	"mcdc/internal/categorical"
	"mcdc/internal/parallel"
)

// RowMatches returns the number of positions on which two value rows agree
// under simple matching. A Missing code never matches anything — including
// another Missing — mirroring the repository-wide convention (kmodes.Hamming,
// Tables): RowMatches(a, b) == len(a) - kmodes.Hamming(a, b).
func RowMatches(a, b []int) int {
	m := 0
	for r := range a {
		if a[r] == b[r] && a[r] != categorical.Missing {
			m++
		}
	}
	return m
}

// PairwiseCondensed computes the object–object similarity matrix under simple
// matching in condensed triangular form: At(i, j) is the fraction of features
// on which rows i and j take the same (non-missing) value, with the implicit
// diagonal 1. The O(n²·d) fill is tiled over the flat triangle index across
// at most `workers` goroutines (≤ 0 → GOMAXPROCS) — tiles are equal-sized
// runs of pairs, so the schedule stays balanced even though early rows own
// more pairs than late ones — and every entry is written exactly once, so the
// result is identical at any parallelism level.
//
// When the rows pack into one-hot bit planes (see PackRows) the per-pair
// match count is computed by the word-wide AND+popcount kernel instead of
// the per-feature branchy loop — bit-for-bit the same matrix, ≥4× faster on
// small-cardinality data (the packed-vs-unpacked equivalence is pinned by
// the property tests and the parallel equivalence suite). Unpackable rows
// fall back to the unpacked kernel below.
func PairwiseCondensed(rows [][]int, workers int) *Condensed {
	return pairwise(rows, workers, false)
}

// DissimilarityCondensed computes the normalized Hamming dissimilarity matrix
// in condensed form, At(i, j) = kmodes.Hamming(i, j)/d with implicit diagonal
// 0 — the standard input for hierarchical clustering of categorical rows.
// Tiled, parallelized, and packed exactly like PairwiseCondensed.
func DissimilarityCondensed(rows [][]int, workers int) *Condensed {
	return pairwise(rows, workers, true)
}

// PairwiseCondensedUnpacked is the per-feature branchy fill — the original
// kernel, kept as the cross-check oracle for the packed path (the equivalence
// tests compare the two bit for bit) and as the fallback PairwiseCondensed
// takes when PackRows declines the data. Production callers should use
// PairwiseCondensed, which picks the faster kernel itself.
func PairwiseCondensedUnpacked(rows [][]int, workers int) *Condensed {
	return pairwiseUnpacked(rows, workers, false)
}

// DissimilarityCondensedUnpacked is the unpacked oracle/fallback twin of
// DissimilarityCondensed (see PairwiseCondensedUnpacked).
func DissimilarityCondensedUnpacked(rows [][]int, workers int) *Condensed {
	return pairwiseUnpacked(rows, workers, true)
}

// MeanPairwise returns the mean pairwise simple-matching similarity of the
// rows — a cohesion summary (1 = all rows identical). A set of fewer than two
// rows is perfectly cohesive by convention. The O(n²·d) accumulation streams
// the same tiled pair order as PairwiseCondensed without materializing the
// matrix (O(1) memory per tile); tile boundaries depend only on the pair
// count and per-tile sums fold in tile order, so the value is deterministic
// at any parallelism level. Packable rows use the popcount kernel: the
// per-pair match counts are identical integers, so the folded sum is
// bit-for-bit the unpacked one.
func MeanPairwise(rows [][]int, workers int) float64 {
	n := len(rows)
	if n < 2 {
		return 1
	}
	d := len(rows[0])
	pairs := n * (n - 1) / 2
	packed := PackRows(rows)
	sum, err := parallel.MapReduce(parallel.Gate(workers, pairs*d), pairs, 0.0,
		func(lo, hi int) (float64, error) {
			i, j := pairAt(n, lo)
			var s float64
			if packed != nil {
				ri := packed.Row(i)
				for t := lo; t < hi; t++ {
					s += float64(matchWords(ri, packed.Row(j))) / float64(d)
					if j++; j == n {
						i++
						j = i + 1
						ri = packed.Row(i)
					}
				}
				return s, nil
			}
			ri := rows[i]
			for t := lo; t < hi; t++ {
				s += float64(RowMatches(ri, rows[j])) / float64(d)
				if j++; j == n {
					i++
					j = i + 1
					ri = rows[i]
				}
			}
			return s, nil
		},
		func(acc, next float64) float64 { return acc + next })
	parallel.Must(err)
	return sum / float64(pairs)
}

// pairwise picks the kernel: the packed popcount fill when the rows pack,
// the per-feature loop otherwise. Both produce the same chunk layout and the
// same float64 in every slot.
func pairwise(rows [][]int, workers int, dissim bool) *Condensed {
	if len(rows) >= 2 {
		if p := PackRows(rows); p != nil {
			return pairwisePacked(rows, p, workers, dissim)
		}
	}
	return pairwiseUnpacked(rows, workers, dissim)
}

func pairwiseUnpacked(rows [][]int, workers int, dissim bool) *Condensed {
	n := len(rows)
	diag := 1.0
	if dissim {
		diag = 0
	}
	c := NewCondensed(n, diag)
	if n < 2 {
		return c
	}
	d := len(rows[0])
	// Tiles are contiguous runs of the flat triangle index: chunk boundaries
	// depend only on the pair count, each flat slot is written by exactly one
	// goroutine, and (i, j) are recovered once per tile then advanced
	// incrementally.
	parallel.Must(parallel.ForEachChunk(parallel.Gate(workers, c.Pairs()*d), c.Pairs(), func(lo, hi int) error {
		i, j := pairAt(n, lo)
		ri := rows[i]
		for t := lo; t < hi; t++ {
			m := RowMatches(ri, rows[j])
			if dissim {
				m = d - m
			}
			c.data[t] = float64(m) / float64(d)
			if j++; j == n {
				i++
				j = i + 1
				ri = rows[i]
			}
		}
		return nil
	}))
	return c
}

// pairwisePacked is the popcount fill. The tiling is the same flat-triangle
// chunking as the unpacked fill (boundaries depend only on the pair count);
// within a tile, row i's words sit in registers while the j-side streams the
// packed block's consecutive cache lines, so the kernel is bound by popcount
// throughput, not memory latency. A lookup table maps integer match counts
// to their float64 quotients — float64(m)/float64(d) for each possible m,
// computed once — which keeps the per-pair float result bit-identical to the
// unpacked division while hoisting the divide out of the O(n²) loop.
func pairwisePacked(rows [][]int, p *PackedRows, workers int, dissim bool) *Condensed {
	n := len(rows)
	diag := 1.0
	if dissim {
		diag = 0
	}
	c := NewCondensed(n, diag)
	d := p.D()
	lut := make([]float64, d+1)
	for m := 0; m <= d; m++ {
		v := m
		if dissim {
			v = d - m
		}
		lut[m] = float64(v) / float64(d)
	}
	parallel.Must(parallel.ForEachChunk(parallel.Gate(workers, c.Pairs()*p.Words()), c.Pairs(), func(lo, hi int) error {
		i, j := pairAt(n, lo)
		ri := p.Row(i)
		for t := lo; t < hi; t++ {
			c.data[t] = lut[matchWords(ri, p.Row(j))]
			if j++; j == n {
				i++
				j = i + 1
				ri = p.Row(i)
			}
		}
		return nil
	}))
	return c
}
