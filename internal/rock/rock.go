// Package rock implements ROCK (Guha, Rastogi & Shim 2000), the link-based
// agglomerative algorithm for categorical attributes. Objects are neighbours
// when their Jaccard similarity exceeds θ; the link count of a pair is the
// number of common neighbours; clusters are merged greedily by the goodness
// measure g(Ci,Cj) = links(Ci,Cj) / ((n_i+n_j)^(1+2f(θ)) − n_i^(1+2f(θ)) −
// n_j^(1+2f(θ))) with f(θ) = (1−θ)/(1+θ).
//
// As in the original system, large data sets are handled by clustering a
// random sample and assigning the remaining objects to the cluster with the
// highest normalized neighbour fraction.
package rock

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/categorical"
)

// Config parameterizes ROCK.
type Config struct {
	K int
	// Theta is the neighbourhood similarity threshold θ ∈ (0,1); the cited
	// paper's experiments use values near 0.5 (default here).
	Theta float64
	// SampleSize bounds the number of objects clustered agglomeratively;
	// remaining objects are assigned afterwards (0 = default 800).
	SampleSize int
	Rand       *rand.Rand
}

// Result is the final partition. Clusters is the number of distinct labels
// actually produced: when the link graph is too sparse to merge down to K it
// can differ from K in either direction — the "cannot obtain the pre-set
// number of clusters" failure mode the paper reports for ROCK.
type Result struct {
	Labels   []int
	Clusters int
}

// Run clusters integer-coded rows into (approximately) cfg.K clusters.
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("rock: empty data")
	}
	if cfg.Rand == nil {
		return nil, errors.New("rock: nil random source")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("rock: k must be positive, got %d", cfg.K)
	}
	theta := cfg.Theta
	if theta <= 0 || theta >= 1 {
		theta = 0.5
	}
	sampleSize := cfg.SampleSize
	if sampleSize <= 0 {
		sampleSize = 800
	}

	// Sample when the data set is large.
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	if n > sampleSize {
		perm := cfg.Rand.Perm(n)
		sample = perm[:sampleSize]
	}
	s := len(sample)

	// Neighbour lists on the sample.
	jaccard := func(a, b []int) float64 {
		match := 0
		for r := range a {
			if a[r] == b[r] && a[r] != categorical.Missing {
				match++
			}
		}
		return float64(match) / float64(2*len(a)-match)
	}
	nbrs := make([][]int, s)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			if jaccard(rows[sample[i]], rows[sample[j]]) >= theta {
				nbrs[i] = append(nbrs[i], j)
				nbrs[j] = append(nbrs[j], i)
			}
		}
	}
	// Objects without any neighbour cannot participate in link-based
	// merging; the original system discards such outliers before
	// agglomeration and folds them back in afterwards. Keeping them would
	// waste cluster slots on singletons and force genuine clusters to merge.
	kept := make([]int, 0, s) // kept[j] = original sample slot
	keptIdx := make([]int, s) // sample slot -> kept index, -1 if outlier
	for i := 0; i < s; i++ {
		keptIdx[i] = -1
		if len(nbrs[i]) > 0 {
			keptIdx[i] = len(kept)
			kept = append(kept, i)
		}
	}
	// Pairwise link counts via common-neighbour accumulation (neighbour
	// relations are symmetric, so every neighbour of a kept object is kept).
	links := make(map[[2]int]int)
	for _, nb := range nbrs {
		for a := 0; a < len(nb); a++ {
			for b := a + 1; b < len(nb); b++ {
				key := [2]int{keptIdx[nb[a]], keptIdx[nb[b]]}
				links[key]++
			}
		}
	}

	if len(kept) == 0 {
		// Degenerate: no links at all; everything lands in one cluster.
		return &Result{Labels: make([]int, n), Clusters: 1}, nil
	}
	keptLabels, clusters := categorical.DenseLabels(agglomerate(len(kept), links, cfg.K, theta))
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	keptSample := make([]int, len(kept)) // original dataset indices of kept objects
	for j, slot := range kept {
		keptSample[j] = sample[slot]
		out[sample[slot]] = keptLabels[j]
	}
	// Outliers and non-sampled objects are assigned by neighbour fraction.
	assignRest(rows, keptSample, keptLabels, clusters, out, theta, jaccard)
	return &Result{Labels: out, Clusters: clusters}, nil
}

// pair is a lazy-invalidation heap entry for a candidate merge.
type pair struct {
	goodness float64
	a, b     int
	va, vb   int // cluster versions at push time
}

// pairHeap pops the best merge first. Its order is total, goodness
// descending and then a, b, va, vb ascending, so pairs of equal goodness pop
// in the same order however the heap was filled: agglomerate fills it by
// ranging over maps, whose order Go randomizes.
type pairHeap []pair

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	x, y := h[i], h[j]
	switch {
	case x.goodness != y.goodness:
		return x.goodness > y.goodness
	case x.a != y.a:
		return x.a < y.a
	case x.b != y.b:
		return x.b < y.b
	case x.va != y.va:
		return x.va < y.va
	default:
		return x.vb < y.vb
	}
}
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// agglomerate merges the s singleton clusters down to k using the ROCK
// goodness measure, stopping early when no linked pair remains.
func agglomerate(s int, links map[[2]int]int, k int, theta float64) []int {
	f := (1 - theta) / (1 + theta)
	expo := 1 + 2*f
	goodness := func(li, ni, nj int) float64 {
		denom := math.Pow(float64(ni+nj), expo) - math.Pow(float64(ni), expo) - math.Pow(float64(nj), expo)
		if denom <= 0 {
			return 0
		}
		return float64(li) / denom
	}

	size := make([]int, s)
	version := make([]int, s)
	alive := make([]bool, s)
	parent := make([]int, s)
	clLinks := make([]map[int]int, s)
	for i := 0; i < s; i++ {
		size[i] = 1
		alive[i] = true
		parent[i] = i
		clLinks[i] = make(map[int]int)
	}
	for key, li := range links {
		clLinks[key[0]][key[1]] = li
		clLinks[key[1]][key[0]] = li
	}

	h := &pairHeap{}
	for key, li := range links {
		heap.Push(h, pair{goodness(li, 1, 1), key[0], key[1], 0, 0})
	}

	remaining := s
	for remaining > k && h.Len() > 0 {
		top := heap.Pop(h).(pair)
		a, b := top.a, top.b
		if !alive[a] || !alive[b] || version[a] != top.va || version[b] != top.vb {
			continue
		}
		if top.goodness <= 0 {
			break
		}
		// Merge b into a.
		alive[b] = false
		parent[b] = a
		size[a] += size[b]
		version[a]++
		delete(clLinks[a], b)
		delete(clLinks[b], a)
		for m, li := range clLinks[b] {
			if !alive[m] {
				continue
			}
			clLinks[a][m] += li
			clLinks[m][a] = clLinks[a][m]
			delete(clLinks[m], b)
		}
		clLinks[b] = nil
		for m, li := range clLinks[a] {
			if !alive[m] {
				continue
			}
			heap.Push(h, pair{goodness(li, size[a], size[m]), a, m, version[a], version[m]})
		}
		remaining--
	}

	// Resolve union-find parents to final labels.
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	labels := make([]int, s)
	for i := range labels {
		labels[i] = find(i)
	}
	return labels
}

// assignRest places the non-sampled objects into the cluster maximizing the
// normalized neighbour fraction N_i(C) / (n_C+1)^f(θ), the disk-resident
// assignment rule of the original system. Unlinkable objects join the
// globally largest cluster rather than forming new ones, so the cluster
// count stays clusters.
func assignRest(rows [][]int, sample []int, sampleLabels []int, clusters int, out []int, theta float64, jaccard func(a, b []int) float64) {
	f := (1 - theta) / (1 + theta)
	sizes := make([]int, clusters)
	for _, l := range sampleLabels {
		sizes[l]++
	}
	largest := 0
	for l, sz := range sizes {
		if sz > sizes[largest] {
			largest = l
		}
	}
	for i := range out {
		if out[i] >= 0 {
			continue
		}
		counts := make([]int, clusters)
		for si, orig := range sample {
			if jaccard(rows[i], rows[orig]) >= theta {
				counts[sampleLabels[si]]++
			}
		}
		best, bestScore := -1, 0.0
		for l, c := range counts {
			if c == 0 {
				continue
			}
			score := float64(c) / math.Pow(float64(sizes[l]+1), f)
			if score > bestScore {
				best, bestScore = l, score
			}
		}
		if best < 0 {
			best = largest
		}
		out[i] = best
		sizes[best]++
	}
}
