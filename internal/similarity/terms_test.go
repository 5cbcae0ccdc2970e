package similarity

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcdc/internal/categorical"
)

// randomTerms returns n finite terms of either sign, zeros of both signs and
// magnitudes far apart, so that the order of the adds shows in the rounding.
func randomTerms(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		switch rng.Intn(6) {
		case 0:
			m[i] = 0
		case 1:
			m[i] = math.Copysign(0, -1)
		case 2:
			m[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
		default:
			m[i] = rng.Float64()
		}
	}
	return m
}

// checkKernel runs the kernel and the Go loop on one row and requires every
// column sum to agree under math.Float64bits.
func checkKernel(t *testing.T, row []int, stride int, m []float64, cols int) {
	t.Helper()
	got, want := make([]float64, cols), make([]float64, cols)
	for j := range got {
		got[j] = math.NaN() // the kernel must overwrite every column
	}
	termSums(row, len(row), stride, m, got)
	sumTermsGo(row, stride, m, want)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("cols %d, row %v: column %d kernel %v (%#x), Go loop %v (%#x)",
				cols, row, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestSumTermsKernelMatchesGoLoop compares the term-sum kernel with the Go
// loop bit for bit, at column counts that reach every 16-column block and
// every 2- and 1-column tail, d from 1 to 40, and rows with Missing cells.
func TestSumTermsKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, cols := range []int{1, 2, 3, 15, 16, 17, 18, 31, 33, 114} {
		for d := 1; d <= 40; d++ {
			stride := 1 + rng.Intn(5)
			m := randomTerms(rng, d*stride*cols)
			for trial := 0; trial < 4; trial++ {
				row := make([]int, d)
				for r := range row {
					if rng.Intn(4) == 0 {
						row[r] = categorical.Missing
					} else {
						row[r] = rng.Intn(stride)
					}
				}
				checkKernel(t, row, stride, m, cols)
			}
		}
	}
}

// TestSumTermsRefusesRowsOutsideMatrix checks that the wrapper panics before
// the kernel reads anything when a row names a term row outside the matrix:
// a value past the stride, a negative code other than Missing, a row of the
// wrong width, or a matrix with too few entries.
func TestSumTermsRefusesRowsOutsideMatrix(t *testing.T) {
	const d, stride, cols = 3, 4, 17
	m := make([]float64, d*stride*cols)
	acc := make([]float64, cols)
	for _, tc := range []struct {
		name string
		row  []int
		m    []float64
	}{
		{"value at the stride", []int{0, stride, 1}, m},
		{"value far past the stride", []int{0, 1, math.MaxInt}, m},
		{"negative value", []int{-2, 0, 1}, m},
		{"most negative value", []int{math.MinInt, 0, 1}, m},
		{"short row", []int{0, 1}, m},
		{"long row", []int{0, 1, 2, 3}, m},
		{"short matrix", []int{0, 1, 2}, m[:len(m)-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("row %v over %d entries: no panic", tc.row, len(tc.m))
				}
			}()
			termSums(tc.row, d, stride, tc.m, acc)
		})
	}
	termSums([]int{categorical.Missing, stride - 1, 0}, d, stride, m, acc)
}

// TestDropEmptyMatchesRebuiltTables checks the compaction of cluster slots:
// the survivors keep their sizes, counts and seen totals, in order, and Add
// and Remove afterwards leave the tables equal to tables rebuilt from the
// relabelled assignment.
func TestDropEmptyMatchesRebuiltTables(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		n, d, k := 1+rng.Intn(40), 1+rng.Intn(8), 1+rng.Intn(12)
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(6)
		}
		rows := randomRows(rng, n, card, []float64{0, 0.2, 0.6}[trial%3])
		tb, err := NewTables(rows, card, k)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, n)
		for i := range assign {
			// Some objects stay out, and only some slots are used.
			if assign[i] = rng.Intn(k + 1); assign[i] < k && assign[i]%3 != 1 {
				tb.Add(i, assign[i])
			} else {
				assign[i] = -1
			}
		}
		before := tb.State()
		slot := make([]int, k)
		tb.DropEmpty(slot)
		after := tb.State()
		kept := 0
		for l := 0; l < k; l++ {
			if before.Sizes[l] == 0 {
				if slot[l] != -1 {
					t.Fatalf("trial %d: empty slot %d moved to %d", trial, l, slot[l])
				}
				continue
			}
			if slot[l] != kept {
				t.Fatalf("trial %d: slot %d moved to %d, want %d", trial, l, slot[l], kept)
			}
			if tb.Size(kept) != before.Sizes[l] {
				t.Fatalf("trial %d: slot %d size %d, was %d", trial, kept, tb.Size(kept), before.Sizes[l])
			}
			if !reflect.DeepEqual(after.Counts[kept], before.Counts[l]) || !reflect.DeepEqual(after.Seen[kept], before.Seen[l]) {
				t.Fatalf("trial %d: slot %d's statistics differ from old slot %d's", trial, kept, l)
			}
			kept++
		}
		if tb.K() != kept {
			t.Fatalf("trial %d: K %d, want %d", trial, tb.K(), kept)
		}
		if kept == 0 {
			continue
		}
		for i, l := range assign {
			if l >= 0 {
				assign[i] = slot[l]
			}
		}
		for step := 0; step < 2*n; step++ {
			i := rng.Intn(n)
			if assign[i] >= 0 {
				tb.Remove(i, assign[i])
				assign[i] = -1
			}
			if rng.Intn(3) > 0 {
				assign[i] = rng.Intn(kept)
				tb.Add(i, assign[i])
			}
		}
		rebuilt, err := NewTables(rows, card, kept)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range assign {
			if l >= 0 {
				rebuilt.Add(i, l)
			}
		}
		if got, want := tb.State(), rebuilt.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: compacted tables after Add/Remove differ from rebuilt ones:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// FuzzTermSums compares the term-sum kernel with the Go loop under
// math.Float64bits. The input decodes to a column count, a stride, a row
// (each byte a value below the stride or Missing), and the matrix's terms,
// eight bytes each, repeated to fill it. A NaN or infinite term has its top
// exponent bit cleared, which makes it finite: with two NaN operands an add
// may return either payload, so NaN is left out.
func FuzzTermSums(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0}, []byte{})
	f.Add(uint8(113), uint8(2), []byte{0, 1, 2, 0, 1}, []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\xf0\xbf"))
	f.Fuzz(func(t *testing.T, colByte, strideByte uint8, rowBytes, termBytes []byte) {
		cols, stride := 1+int(colByte)%160, 1+int(strideByte)%8
		if len(rowBytes) == 0 || len(rowBytes) > 64 {
			return
		}
		row := make([]int, len(rowBytes))
		for r, b := range rowBytes {
			if row[r] = int(b) % (stride + 1); row[r] == stride {
				row[r] = categorical.Missing
			}
		}
		m := make([]float64, len(row)*stride*cols)
		if chunks := len(termBytes) / 8; chunks > 0 {
			for i := range m {
				bits := binary.LittleEndian.Uint64(termBytes[i%chunks*8:])
				if x := math.Float64frombits(bits); math.IsNaN(x) || math.IsInf(x, 0) {
					bits &^= 1 << 62
				}
				m[i] = math.Float64frombits(bits)
			}
		}
		checkKernel(t, row, stride, m, cols)
	})
}
