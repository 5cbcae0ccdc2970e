package similarity

import (
	"math"

	"mcdc/internal/categorical"
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

// pairAt maps a flat index t of the strict upper triangle of an n×n matrix,
// stored row-major as (0,1), (0,2), …, (0,n−1), (1,2), …, (n−2,n−1), to its
// (i, j) coordinates. Row i starts at i·(2n−i−1)/2. The quadratic-formula
// estimate is corrected by an integer search, so the result is exact for
// any n whose n·(n−1)/2 fits in an int.
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
