package core

import (
	"errors"
	"fmt"
	"math/rand"

	"mcdc/internal/similarity"
)

// CompetitiveConfig parameterizes the conventional competitive-learning
// baseline of §II-B (no rival penalization, no multi-granular epochs). It is
// the learning mechanism behind the MCDC₂ ablation of Fig. 4. Its η of
// Eq. (8) is MGCPL's DefaultLearningRate, and it runs at most maxInnerIters
// learning passes.
type CompetitiveConfig struct {
	// InitialK is the starting number of clusters (the ablation uses k*+2).
	InitialK int
	// Rand drives seed selection. Required.
	Rand *rand.Rand
}

// RunCompetitive runs classical frequency-sensitive competitive learning
// (Eq. 3–8): winners absorb objects and gain weight; clusters that stop
// winning empty out and are eliminated. Returns the converged partition.
func RunCompetitive(rows [][]int, cardinalities []int, cfg CompetitiveConfig) (*Granularity, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("core: empty data")
	}
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	k := cfg.InitialK
	if k <= 0 {
		return nil, fmt.Errorf("core: competitive learning requires positive initial k, got %d", k)
	}
	if k > n {
		k = n
	}

	tables, err := similarity.NewTables(rows, cardinalities, k)
	if err != nil {
		return nil, err
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	unit := unitWeights(len(cardinalities))
	u := make([]float64, k)
	g := make([]int, k)
	gCur := make([]int, k)
	for l := range u {
		u[l] = 1
	}
	for l, i := range cfg.Rand.Perm(n)[:k] {
		assign[i] = l
		tables.Add(i, l)
	}

	for iter := 0; iter < maxInnerIters; iter++ {
		changed := false
		var gTotal float64
		for _, gl := range g {
			gTotal += float64(gl)
		}
		for l := range gCur {
			gCur[l] = 0
		}
		for i := 0; i < n; i++ {
			// Winner by Eq. (6): frequency-penalized weighted similarity.
			v, best := -1, -1.0
			for l := 0; l < k; l++ {
				if tables.Size(l) == 0 {
					continue
				}
				rho := 0.0
				if gTotal > 0 {
					rho = float64(g[l]) / gTotal
				}
				if score := (1 - rho) * u[l] * tables.WeightedSimLOO(i, l, unit, assign[i] == l); score > best {
					best, v = score, l
				}
			}
			if v < 0 {
				continue
			}
			if assign[i] != v {
				if assign[i] >= 0 {
					tables.Remove(i, assign[i])
				}
				tables.Add(i, v)
				assign[i] = v
				changed = true
			}
			gCur[v]++
			// Award the winner by a small step (Eq. 8), clamped to [0,1].
			if u[v] += DefaultLearningRate; u[v] > 1 {
				u[v] = 1
			}
		}
		copy(g, gCur)
		if !changed {
			break
		}
	}
	level := granularity(assign)
	return &level, nil
}

// SimilarityPartitionConfig parameterizes the plainest ablation (MCDC₁ of
// Fig. 4): iterative k-way partitioning that assigns every object to the
// cluster maximizing the object–cluster similarity of Eq. (1), with k given,
// for at most maxInnerIters passes.
type SimilarityPartitionConfig struct {
	K    int
	Rand *rand.Rand
}

// RunSimilarityPartition clusters rows into exactly cfg.K clusters by
// alternating nearest-cluster assignment under Eq. (1) with the implied
// frequency-table refresh, until the partition stabilizes.
func RunSimilarityPartition(rows [][]int, cardinalities []int, cfg SimilarityPartitionConfig) (*Granularity, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("core: empty data")
	}
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("core: similarity partition requires positive k, got %d", k)
	}
	if k > n {
		k = n
	}

	tables, err := similarity.NewTables(rows, cardinalities, k)
	if err != nil {
		return nil, err
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for l, i := range cfg.Rand.Perm(n)[:k] {
		assign[i] = l
		tables.Add(i, l)
	}
	unit := unitWeights(len(cardinalities))

	for iter := 0; iter < maxInnerIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			v, best := -1, -1.0
			for l := 0; l < k; l++ {
				if tables.Size(l) == 0 {
					continue
				}
				if s := tables.WeightedSimLOO(i, l, unit, assign[i] == l); s > best {
					best, v = s, l
				}
			}
			if v < 0 || assign[i] == v {
				continue
			}
			if assign[i] >= 0 {
				tables.Remove(i, assign[i])
			}
			tables.Add(i, v)
			assign[i] = v
			changed = true
		}
		if !changed {
			break
		}
	}
	level := granularity(assign)
	return &level, nil
}

// unitWeights returns d feature weights of 1, under which WeightedSimLOO is
// the unweighted similarity of Eq. (1).
func unitWeights(d int) []float64 {
	w := make([]float64, d)
	for r := range w {
		w[r] = 1
	}
	return w
}
