// Package kmodes implements Huang's (1997) k-modes algorithm, the standard
// partitional baseline for categorical data: k cluster modes, simple-matching
// (Hamming) dissimilarity, alternating assignment and per-feature majority
// mode updates.
package kmodes

import (
	"errors"
	"fmt"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/seeding"
)

// maxIters caps the alternating assignment and mode updates; the partition
// normally settles well before.
const maxIters = 100

// Config parameterizes a k-modes run.
type Config struct {
	K    int
	Rand *rand.Rand
}

// Result is the converged k-modes partition.
type Result struct {
	Labels []int
	Modes  [][]int
	Cost   float64 // total Hamming dissimilarity to assigned modes
}

// Hamming returns the simple-matching dissimilarity between two value rows:
// the number of positions where they differ (missing counts as a mismatch).
func Hamming(a, b []int) int {
	d := 0
	for r := range a {
		if a[r] != b[r] || a[r] == categorical.Missing {
			d++
		}
	}
	return d
}

// Run clusters integer-coded rows into cfg.K clusters.
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("kmodes: empty data")
	}
	if cfg.Rand == nil {
		return nil, errors.New("kmodes: nil random source")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("kmodes: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	d := len(cardinalities)

	modes := make([][]int, k)
	for l, i := range seeding.DistinctRows(rows, k, cfg.Rand) {
		modes[l] = append([]int(nil), rows[i]...)
	}
	labels := make([]int, n)
	counts := make([][][]int, k)
	sizes := make([]int, k)
	for l := range counts {
		counts[l] = make([][]int, d)
		for r := range counts[l] {
			counts[l][r] = make([]int, cardinalities[r])
		}
	}

	assign := func() bool {
		changed := false
		for i, row := range rows {
			best, bestD := 0, Hamming(row, modes[0])
			for l := 1; l < k; l++ {
				if dist := Hamming(row, modes[l]); dist < bestD {
					best, bestD = l, dist
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		return changed
	}

	updateModes := func() {
		for l := range counts {
			sizes[l] = 0
			for r := range counts[l] {
				for v := range counts[l][r] {
					counts[l][r][v] = 0
				}
			}
		}
		for i, l := range labels {
			sizes[l]++
			for r, v := range rows[i] {
				if v != categorical.Missing {
					counts[l][r][v]++
				}
			}
		}
		for l := 0; l < k; l++ {
			if sizes[l] == 0 {
				// Re-seed empty cluster with a random object.
				modes[l] = append(modes[l][:0], rows[cfg.Rand.Intn(n)]...)
				continue
			}
			for r := 0; r < d; r++ {
				best, bestC := 0, -1
				for v, c := range counts[l][r] {
					if c > bestC {
						best, bestC = v, c
					}
				}
				modes[l][r] = best
			}
		}
	}

	// First assignment against the random seeds, then alternate.
	for i := range labels {
		labels[i] = -1
	}
	assign()
	for iter := 0; iter < maxIters; iter++ {
		updateModes()
		if !assign() {
			break
		}
	}
	var cost float64
	for i, l := range labels {
		cost += float64(Hamming(rows[i], modes[l]))
	}
	return &Result{Labels: labels, Modes: modes, Cost: cost}, nil
}
