package similarity

import (
	"testing"
)

// FuzzPairAt fuzzes the triangle index inversion: for any dimension n and
// flat index t, pairAt must return an in-bounds upper-triangle pair (i, j)
// whose forward flat index is exactly t. The float-sqrt seed estimate is
// only a starting guess — the integer fix-up loops must land it exactly,
// including at the row boundaries where the estimate is off by one.
func FuzzPairAt(f *testing.F) {
	f.Add(2, 0)
	f.Add(3, 2)
	f.Add(65, 64)
	f.Add(2000, 1998999) // last pair at n = 2000
	f.Add(46342, 1073767410)
	f.Fuzz(func(t *testing.T, n, flat int) {
		if n < 2 || n > 1<<16 {
			t.Skip()
		}
		pairs := n * (n - 1) / 2
		if flat < 0 {
			flat = ^flat
		}
		flat %= pairs
		i, j := pairAt(n, flat)
		if i < 0 || j <= i || j >= n {
			t.Fatalf("pairAt(%d, %d) = (%d, %d): out of the upper triangle", n, flat, i, j)
		}
		if fwd := i*(2*n-i-1)/2 + (j - i - 1); fwd != flat {
			t.Fatalf("pairAt(%d, %d) = (%d, %d): forward index %d", n, flat, i, j, fwd)
		}
	})
}

// FuzzPackRows fuzzes the bit-packing front door with arbitrary row bytes:
// whenever PackRows accepts the rows, every packed pair count must equal the
// unpacked RowMatches oracle; when it declines, that must be for one of the
// documented reasons (checked loosely: decline is always legal, silent
// divergence never is).
func FuzzPackRows(f *testing.F) {
	f.Add(3, []byte{0, 1, 2, 1, 0, 2})
	f.Add(1, []byte{255})
	f.Add(2, []byte{63, 64, 65, 0})
	f.Fuzz(func(t *testing.T, d int, cells []byte) {
		if d < 1 || d > 64 || len(cells) < d {
			t.Skip()
		}
		n := len(cells) / d
		if n < 2 {
			t.Skip()
		}
		if n > 64 {
			n = 64
		}
		rows := make([][]int, n)
		for i := range rows {
			row := make([]int, d)
			for r := range row {
				// Map bytes to codes including Missing (-1): 0xff → Missing.
				v := int(cells[i*d+r])
				if v == 255 {
					v = -1
				}
				row[r] = v
			}
			rows[i] = row
		}
		p := PackRows(rows)
		if p == nil {
			return // declining is always allowed; diverging is not
		}
		for i := range rows {
			for j := range rows {
				if got, want := p.Matches(i, j), RowMatches(rows[i], rows[j]); got != want {
					t.Fatalf("Matches(%d,%d) = %d, RowMatches = %d (rows %v, %v)",
						i, j, got, want, rows[i], rows[j])
				}
			}
		}
	})
}
