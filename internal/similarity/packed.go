package similarity

import (
	"math/bits"

	"mcdc/internal/categorical"
)

// PackedRows is a bit-packed, one-hot-plane representation of a categorical
// data set, built for word-wide match counting: each feature r owns a
// contiguous run of card[r] bits (its "plane") inside a row's bit string, and
// a row sets exactly the bit of its value on every non-missing feature (a
// Missing value sets no bit, so it can never match — including another
// Missing — exactly like RowMatches). With that layout the simple-matching
// agreement count of two rows collapses to
//
//	matches(a, b) = popcount(a AND b)
//
// because two rows share a set bit in feature r's plane iff they take the
// same non-missing value there. One AND + bits.OnesCount64 per 64 bits
// replaces up to 64 per-feature compare-and-branch iterations (the XOR form
// popcount(a XOR b) counts disagreeing *bits*, not features, so the kernel
// uses AND).
//
// Rows are packed back to back into one row-major []uint64 block, so a loop
// over consecutive rows streams consecutive cache lines.
type PackedRows struct {
	n     int // rows
	d     int // features
	words int // uint64 words per row
	// bits holds the packed rows, row i at bits[i*words : (i+1)*words].
	bits []uint64
	// offsets[r] is the first bit of feature r's plane; offsets[d] is the
	// total bit width (the prefix sums of the observed cardinalities).
	offsets []int
}

// maxPackedBits caps the packed row width: beyond it the one-hot planes stop
// paying for themselves (the packed row outgrows the cache lines the kernel
// saves) and PackRows falls back to nil. 2^16 bits = 1 KiB per row.
const maxPackedBits = 1 << 16

// PackRows builds the one-hot-plane representation of rows, deriving each
// feature's plane width from the values actually observed (max code + 1 —
// the value-dictionary cardinality when rows were coded from one). It
// returns nil when the rows cannot be packed faithfully or profitably, and
// callers must then count with RowMatches:
//
//   - a value is negative but not categorical.Missing, or rows have unequal
//     widths — the packed layout cannot reproduce RowMatches' semantics;
//   - the total width exceeds maxPackedBits, or needs more words than there
//     are features — word-wide AND+popcount would not beat the d-iteration
//     unpacked loop.
func PackRows(rows [][]int) *PackedRows {
	n := len(rows)
	if n == 0 {
		return nil
	}
	d := len(rows[0])
	if d == 0 {
		return nil
	}
	card := make([]int, d)
	for _, row := range rows {
		if len(row) != d {
			return nil
		}
		for r, v := range row {
			if v < 0 {
				if v != categorical.Missing {
					return nil
				}
				continue
			}
			if v+1 > card[r] {
				card[r] = v + 1
			}
		}
	}
	offsets := make([]int, d+1)
	total := 0
	for r, m := range card {
		offsets[r] = total
		total += m
		if total > maxPackedBits {
			return nil
		}
	}
	offsets[d] = total
	words := (total + 63) / 64
	if words > d {
		// At one AND+popcount per word vs one branchy compare per feature,
		// packing only pays while the row does not grow (ties still win:
		// the word loop is branch-free).
		return nil
	}
	if words == 0 {
		words = 1 // all-Missing data still packs (to rows that match nothing)
	}
	p := &PackedRows{n: n, d: d, words: words, bits: make([]uint64, n*words), offsets: offsets}
	for i, row := range rows {
		w := p.bits[i*words : (i+1)*words]
		for r, v := range row {
			if v < 0 {
				continue
			}
			bit := offsets[r] + v
			w[bit>>6] |= 1 << (bit & 63)
		}
	}
	return p
}

// N reports the number of packed rows.
func (p *PackedRows) N() int { return p.n }

// D reports the number of features per row.
func (p *PackedRows) D() int { return p.d }

// Row returns row i's packed words (a view into the backing block).
func (p *PackedRows) Row(i int) []uint64 {
	return p.bits[i*p.words : (i+1)*p.words]
}

// Matches returns the number of features on which rows i and j agree under
// simple matching — bit-for-bit the integer RowMatches(rows[i], rows[j])
// computes, via AND+popcount over the packed planes.
func (p *PackedRows) Matches(i, j int) int {
	return matchWords(p.Row(i), p.Row(j))
}

// matchWords counts the shared set bits of two equal-length packed rows. The
// small fixed widths (the common case: tens of features at small cardinality
// pack into 1–3 words) are unrolled so the hot kernel has no loop at all.
func matchWords(a, b []uint64) int {
	switch len(a) {
	case 1:
		return bits.OnesCount64(a[0] & b[0])
	case 2:
		return bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1])
	case 3:
		return bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]) +
			bits.OnesCount64(a[2]&b[2])
	}
	m := 0
	for w := range a {
		m += bits.OnesCount64(a[w] & b[w])
	}
	return m
}
