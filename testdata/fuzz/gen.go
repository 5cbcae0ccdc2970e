//go:build ignore

// gen.go regenerates the committed FuzzLearn seed corpus. The files are
// ordinary `go test fuzz v1` corpus entries: a seed, a k byte, a shape byte
// and the cell bytes, decoded as decodeLearnInput (fuzz_learn_test.go)
// documents, so `go test` replays them on every run. Run from the repo root:
//
//	go run testdata/fuzz/gen.go
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

const dir = "testdata/fuzz/FuzzLearn"

// write stores one entry: k = 1 + kByte%5, n = 1 + shape%16 rows and
// d = 1 + (shape/16)%6 features.
func write(name string, seed int64, kByte, shape uint8, cells []byte) {
	s := fmt.Sprintf("go test fuzz v1\nint64(%d)\nbyte(%q)\nbyte(%q)\n[]byte(%q)\n", seed, kByte, shape, cells)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(s), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// shape packs n ≤ 16 rows and d ≤ 6 features into a shape byte.
func shape(n, d int) uint8 { return uint8((d-1)*16 + n - 1) }

func main() {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// One row over cardinalities 2, 1 and 3, valued {1, 0, 2}: one cluster,
	// at k = 1 and at k = 5 (TestOneRowDataset's row).
	one := []byte{1, 0, 2, 0, 1, 0, 2}
	write("one-row", 1, 0, shape(1, 3), one)
	write("one-row-k5", 7, 4, shape(1, 3), one)
	// Three rows on which ROCK finds no link to merge and returns two
	// clusters for k = 1.
	write("rock-sparse-links", 1, 0, shape(3, 2), []byte("00020201"))
	// Every cell Missing: each byte b%(m+1) is m.
	write("all-missing", 3, 1, shape(4, 3), bytes.Repeat([]byte{4}, 3+4*4))
	// Sixteen copies of one row: every header from row 1 on repeats row 0.
	rep := []byte{4, 4, 4, 4, 0, 1, 2, 3, 4}
	rep = append(rep, bytes.Repeat([]byte{0xc0}, 15)...)
	write("repeated-rows", 2, 3, shape(16, 4), rep)
	// The widest shape: 16 rows, 6 features of 5 values, k = 5, some rows
	// repeated and some cells Missing.
	wide := []byte{4, 4, 4, 4, 4, 4}
	for i := 0; i < 16; i++ {
		if i%5 == 4 {
			wide = append(wide, 0xc0+byte(i))
			continue
		}
		wide = append(wide, byte(i))
		for r := 0; r < 6; r++ {
			wide = append(wide, byte(i*7+r*3))
		}
	}
	write("widest", 11, 4, shape(16, 6), wide)
	// One feature of one value: every object is the same.
	write("one-value", 5, 2, shape(9, 1), []byte{0})
}
