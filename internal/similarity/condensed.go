package similarity

import (
	"fmt"
	"math"
)

// Condensed is a packed symmetric n×n matrix with a constant diagonal: only
// the n·(n−1)/2 strict-upper-triangle entries are stored, in row-major order
// (0,1), (0,2), …, (0,n−1), (1,2), …, (n−2,n−1). Compared to the dense
// [][]float64 representation it halves memory, removes the per-row slice
// headers, and keeps each row's entries contiguous — which is what lets the
// pairwise fills and the linkage nearest-pair scans stream through cache
// lines instead of pointer-chasing rows.
//
// At and Set are O(1); both accept (i,j) in either order. The diagonal is
// implicit: At(i,i) returns the constant passed to NewCondensed (1 for
// similarity matrices, 0 for dissimilarity matrices).
type Condensed struct {
	n    int
	diag float64
	data []float64
}

// NewCondensed allocates an n×n condensed matrix whose off-diagonal entries
// are zero and whose (implicit, constant) diagonal is diag.
func NewCondensed(n int, diag float64) *Condensed {
	if n < 0 {
		panic(fmt.Sprintf("similarity: negative condensed dimension %d", n))
	}
	return &Condensed{n: n, diag: diag, data: make([]float64, n*(n-1)/2)}
}

// N reports the matrix dimension.
func (c *Condensed) N() int { return c.n }

// Diag reports the implicit diagonal value.
func (c *Condensed) Diag() float64 { return c.diag }

// Pairs reports the number of stored entries, n·(n−1)/2.
func (c *Condensed) Pairs() int { return len(c.data) }

// rowStart returns the flat index of entry (i, i+1), the first stored entry
// of row i. rowStart(n-1) == Pairs() (row n−1 stores nothing).
func (c *Condensed) rowStart(i int) int {
	return i * (2*c.n - i - 1) / 2
}

// offset maps an off-diagonal (i, j) to its flat index.
func (c *Condensed) offset(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return c.rowStart(i) + (j - i - 1)
}

// At returns the (i, j) entry; At(i, i) is the constant diagonal.
func (c *Condensed) At(i, j int) float64 {
	if i == j {
		return c.diag
	}
	return c.data[c.offset(i, j)]
}

// Set stores v at (i, j) (and, by symmetry, (j, i)). Writing the diagonal is
// only legal when v equals the constant diagonal (a no-op); anything else
// panics, because the packed layout cannot represent it.
func (c *Condensed) Set(i, j int, v float64) {
	if i == j {
		if v != c.diag {
			panic(fmt.Sprintf("similarity: Condensed.Set(%d, %d, %v) would break the constant diagonal %v", i, j, v, c.diag))
		}
		return
	}
	c.data[c.offset(i, j)] = v
}

// UpperRow returns the stored entries (i, i+1), …, (i, n−1) of row i as a
// contiguous sub-slice of the backing array. Mutating it mutates the matrix;
// it exists so hot scans (linkage's nearest-pair search) can stream a row
// without per-entry index arithmetic.
func (c *Condensed) UpperRow(i int) []float64 {
	return c.data[c.rowStart(i):c.rowStart(i+1)]
}

// UpperRowInto copies the stored entries (i, i+1), …, (i, n−1) of row i into
// dst and returns the filled prefix. UpperRow already returns an
// allocation-free *view* — use it when a view suffices (stats.RowSums and
// the linkage scans do). UpperRowInto is the copying counterpart for callers
// that need the values somewhere else: a snapshot that stays stable while the
// matrix is mutated (the linkage tie-heavy test harness reuses one scratch
// across rows, so a whole-matrix copy performs zero per-row allocations).
// dst must have capacity for n−1−i entries; reslicing panics otherwise, like
// any fixed-capacity destination.
func (c *Condensed) UpperRowInto(i int, dst []float64) []float64 {
	row := c.data[c.rowStart(i):c.rowStart(i+1)]
	dst = dst[:len(row)]
	copy(dst, row)
	return dst
}

// Clone returns an independent deep copy — the working-copy primitive for
// algorithms (linkage) that destructively update the matrix.
func (c *Condensed) Clone() *Condensed {
	return &Condensed{n: c.n, diag: c.diag, data: append([]float64(nil), c.data...)}
}

// Mean returns the mean of the stored (off-diagonal) entries, or the diagonal
// value when n < 2 (a singleton is perfectly self-similar). The sum runs in
// flat-index order, so it is deterministic regardless of how the matrix was
// filled.
func (c *Condensed) Mean() float64 {
	if len(c.data) == 0 {
		return c.diag
	}
	var s float64
	for _, v := range c.data {
		s += v
	}
	return s / float64(len(c.data))
}

// pairAt inverts rowStart: it maps a flat triangle index t to its (i, j)
// coordinates. The quadratic-formula estimate is corrected by an integer
// search, so the result is exact for any n the backing slice can hold.
func pairAt(n, t int) (i, j int) {
	i = int((float64(2*n-1) - math.Sqrt(float64(2*n-1)*float64(2*n-1)-8*float64(t))) / 2)
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	rowStart := func(i int) int { return i * (2*n - i - 1) / 2 }
	for i > 0 && rowStart(i) > t {
		i--
	}
	for i < n-2 && rowStart(i+1) <= t {
		i++
	}
	return i, i + 1 + (t - rowStart(i))
}
