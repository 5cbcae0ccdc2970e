//go:build ignore

// gen.go regenerates the committed FuzzTermSums seed corpus. The files are
// ordinary `go test fuzz v1` corpus entries: a column byte, a stride byte, a
// row and the terms, decoded as FuzzTermSums documents. Run from the repo
// root:
//
//	go run internal/similarity/testdata/fuzz/gen.go
package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

const dir = "internal/similarity/testdata/fuzz/FuzzTermSums"

func terms(xs ...float64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// write stores one entry: cols = 1+colByte, stride = 1+strideByte, and row
// byte b is value b%(stride+1), Missing where that is the stride.
func write(name string, colByte, strideByte uint8, row, t []byte) {
	s := fmt.Sprintf("go test fuzz v1\nbyte(%q)\nbyte(%q)\n[]byte(%q)\n[]byte(%q)\n", colByte, strideByte, row, t)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(s), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	write("one-column", 0, 0, []byte{0}, terms(1))
	// Mushroom's shape: k₀ = 91 columns, 22 features, Missing cells.
	mus := make([]byte, 22)
	for r := range mus {
		mus[r] = byte(r * 5)
	}
	write("mus-shape", 90, 7, mus, terms(0.25, 1.0/3, 0, 0.5, 1e-3, 0.125, 2.0/7))
	// Nursery's shape: k₀ = 114 columns, 8 features.
	write("nur-shape", 113, 4, []byte{0, 1, 2, 3, 4, 0, 1, 2}, terms(0.1, 0.2, 0.3, 0.7))
	// Column counts past a 16-column block, ending in each tail.
	write("tails-31", 30, 2, []byte{0, 1, 2, 0}, terms(1.5, -0.25, 3))
	write("tails-33", 32, 2, []byte{2, 2, 1}, terms(1.5, -0.25, 3))
	// Cancellation: the order of the adds shows in the result.
	write("cancellation", 17, 3, []byte{0, 1, 2, 3, 0, 1, 2}, terms(1e16, 1, -1e16, 0.5, -1, 3e-17))
	// Signed zeros, and a row with every cell Missing.
	write("signed-zeros", 15, 1, []byte{0, 0, 0}, terms(math.Copysign(0, -1), 0))
	write("all-missing", 18, 1, []byte{1, 1, 1, 1}, terms(7))
	// Subnormals, and the largest finite values, whose sum overflows to +Inf.
	write("extremes", 16, 1, []byte{0, 0, 0, 0}, terms(5e-324, math.MaxFloat64, -2.2250738585072014e-308, math.MaxFloat64))
	// NaN and infinite bit patterns, which the target makes finite.
	write("non-finite-bits", 2, 0, []byte{0, 0}, terms(math.NaN(), math.Inf(1), math.Inf(-1)))
}
