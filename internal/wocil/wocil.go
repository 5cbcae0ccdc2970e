// Package wocil implements the categorical part of WOCIL (Jia & Cheung
// 2017): object–cluster-similarity partitioning with per-cluster subspace
// attribute weighting and the deterministic density/distance initialization
// that makes the method's performance run-to-run stable (the property the
// MCDC paper highlights).
package wocil

import (
	"errors"
	"fmt"
	"math"

	"mcdc/internal/categorical"
	"mcdc/internal/similarity"
)

// maxIters caps the assignment passes; the partition normally settles well
// before.
const maxIters = 100

// Config parameterizes WOCIL.
type Config struct {
	K int
}

// Result is the converged partition with the learned subspace weights.
type Result struct {
	Labels  []int
	Weights [][]float64 // w[l][r]
}

// Run clusters integer-coded rows into cfg.K clusters. The algorithm is
// deterministic: no random source is needed.
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("wocil: empty data")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("wocil: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	d := len(cardinalities)

	tables, err := similarity.NewTables(rows, cardinalities, k)
	if err != nil {
		return nil, err
	}

	seeds := stableSeeds(rows, cardinalities, k)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for l, i := range seeds {
		assign[i] = l
		tables.Add(i, l)
	}

	w := make([][]float64, k)
	for l := range w {
		w[l] = make([]float64, d)
		for r := range w[l] {
			w[l][r] = 1 / float64(d)
		}
	}

	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestS := -1, -1.0
			for l := 0; l < k; l++ {
				if tables.Size(l) == 0 {
					continue
				}
				if s := tables.WeightedSimLOO(i, l, w[l], false); s > bestS {
					best, bestS = l, s
				}
			}
			if best < 0 || assign[i] == best {
				continue
			}
			if assign[i] >= 0 {
				tables.Remove(i, assign[i])
			}
			tables.Add(i, best)
			assign[i] = best
			changed = true
		}
		updateWeights(tables, cardinalities, w)
		if !changed {
			break
		}
	}
	labels, _ := categorical.DenseLabels(assign)
	return &Result{Labels: labels, Weights: w}, nil
}

// stableSeeds picks k seeds deterministically: the globally densest object
// first, then farthest-first traversal weighted by density — giving the
// run-to-run stability the paper attributes to WOCIL's initialization.
func stableSeeds(rows [][]int, cardinalities []int, k int) []int {
	n := len(rows)
	d := len(cardinalities)
	stride := 0
	for _, m := range cardinalities {
		if m > stride {
			stride = m
		}
	}
	freq := make([]int, d*stride)
	for _, row := range rows {
		for r, v := range row {
			if v != categorical.Missing {
				freq[r*stride+v]++
			}
		}
	}
	density := make([]float64, n)
	for i, row := range rows {
		for r, v := range row {
			if v != categorical.Missing {
				density[i] += float64(freq[r*stride+v])
			}
		}
		density[i] /= float64(n * d)
	}
	hamming := func(a, b []int) float64 {
		dist := 0
		for r := range a {
			if a[r] != b[r] {
				dist++
			}
		}
		return float64(dist) / float64(len(a))
	}

	seeds := make([]int, 0, k)
	first, bestD := 0, -1.0
	for i := range density {
		if density[i] > bestD {
			first, bestD = i, density[i]
		}
	}
	seeds = append(seeds, first)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = hamming(rows[i], rows[first])
	}
	for len(seeds) < k {
		next, bestScore := -1, -1.0
		for i := range rows {
			score := density[i] * minDist[i]
			if score > bestScore {
				next, bestScore = i, score
			}
		}
		seeds = append(seeds, next)
		for i := range minDist {
			if dd := hamming(rows[i], rows[next]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	return seeds
}

// updateWeights refreshes the subspace attribute weights: features whose
// in-cluster value distribution is far from uniform (low normalized entropy)
// matter more for that cluster.
func updateWeights(t *similarity.Tables, cardinalities []int, w [][]float64) {
	for l := range w {
		if t.Size(l) == 0 {
			continue
		}
		var total float64
		for r := range w[l] {
			m := cardinalities[r]
			if m < 2 {
				w[l][r] = 0
				continue
			}
			var h float64
			for v := 0; v < m; v++ {
				c := t.Count(l, r, v)
				if c == 0 {
					continue
				}
				p := float64(c) / float64(t.Size(l))
				h -= p * math.Log(p)
			}
			imp := 1 - h/math.Log(float64(m))
			if imp < 0 {
				imp = 0
			}
			w[l][r] = imp
			total += imp
		}
		if total <= 0 {
			u := 1 / float64(len(w[l]))
			for r := range w[l] {
				w[l][r] = u
			}
			continue
		}
		for r := range w[l] {
			w[l][r] /= total
		}
	}
}
