// Package seeding provides shared cluster-initialization helpers for the
// k-modes-family algorithms in this repository.
package seeding

import (
	"math/rand"

	"mcdc/internal/parallel"
)

// DistinctRows returns the indices of k seed objects drawn uniformly at
// random, preferring objects with pairwise-distinct value rows: identical
// seed rows produce identical cluster prototypes, which immediately collapse
// into each other. When the data holds fewer than k distinct rows the
// remaining seeds are drawn from the leftover indices, so exactly k indices
// are always returned (k must be ≤ len(rows)).
func DistinctRows(rows [][]int, k int, rng *rand.Rand) []int {
	perm := rng.Perm(len(rows))
	seeds := make([]int, 0, k)
	seen := make(map[string]bool, k)
	var leftovers []int
	keyBuf := make([]byte, 0, 64)
	for _, i := range perm {
		if len(seeds) == k {
			return seeds
		}
		keyBuf = keyBuf[:0]
		for _, v := range rows[i] {
			keyBuf = append(keyBuf, byte(v), byte(v>>8), 0xff)
		}
		key := string(keyBuf)
		if seen[key] {
			leftovers = append(leftovers, i)
			continue
		}
		seen[key] = true
		seeds = append(seeds, i)
	}
	for _, i := range leftovers {
		if len(seeds) == k {
			break
		}
		seeds = append(seeds, i)
	}
	return seeds
}

// FarthestFirst returns k seed indices chosen by farthest-first traversal
// under normalized Hamming distance: a random first seed, then repeatedly
// the object farthest from all chosen seeds. Spread-out seeds make
// k-modes-family optimizers markedly more stable than uniform sampling.
func FarthestFirst(rows [][]int, k int, rng *rand.Rand) []int {
	return FarthestFirstWorkers(rows, k, rng, 1)
}

// FarthestFirstWorkers is FarthestFirst with the O(k·n·d) distance scans
// fanned out over the given worker bound (≤ 0 → GOMAXPROCS, 1 → sequential).
// The rng is consumed once, before any parallel work; the per-round argmax
// folds workers-independent chunk maxima in chunk order with strict
// comparisons, reproducing the sequential lowest-index tie-break — the chosen
// seeds are identical at any parallelism level.
func FarthestFirstWorkers(rows [][]int, k int, rng *rand.Rand, workers int) []int {
	n := len(rows)
	if k > n {
		k = n
	}
	// Each scan below costs n·d; on small inputs the fan-out overhead
	// exceeds the saved compute, so drop to inline execution. The scan
	// callbacks are infallible, so errors (recovered worker panics only) are
	// re-raised via parallel.Must rather than seeding from a half-updated
	// distance vector.
	scanWorkers := parallel.Gate(workers, n*len(rows[0]))
	seeds := make([]int, 0, k)
	first := rng.Intn(n)
	seeds = append(seeds, first)
	hamming := func(a, b []int) int {
		d := 0
		for r := range a {
			if a[r] != b[r] {
				d++
			}
		}
		return d
	}
	minDist := make([]int, n)
	parallel.Must(parallel.ForEachChunk(scanWorkers, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			minDist[i] = hamming(rows[i], rows[first])
		}
		return nil
	}))
	type argmax struct {
		idx  int
		dist int
	}
	// The per-round argmax is only O(n) — far lighter than the O(n·d)
	// distance scans — so gate it on its own cost.
	argmaxWorkers := parallel.Gate(scanWorkers, n)
	for len(seeds) < k {
		top, err := parallel.MapReduce(argmaxWorkers, n, argmax{idx: -1, dist: -1},
			func(lo, hi int) (argmax, error) {
				best := argmax{idx: -1, dist: -1}
				for i := lo; i < hi; i++ {
					if minDist[i] > best.dist {
						best = argmax{idx: i, dist: minDist[i]}
					}
				}
				return best, nil
			},
			func(acc, next argmax) argmax {
				if next.dist > acc.dist {
					return next
				}
				return acc
			})
		parallel.Must(err)
		next := top.idx
		seeds = append(seeds, next)
		parallel.Must(parallel.ForEachChunk(scanWorkers, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if dd := hamming(rows[i], rows[next]); dd < minDist[i] {
					minDist[i] = dd
				}
			}
			return nil
		}))
	}
	return seeds
}
