// Package adc implements the categorical side of ADC (Zhang & Cheung 2022):
// graph-based dissimilarity measurement for cluster analysis. Feature values
// become nodes of a coupling graph whose edges carry co-occurrence strength;
// the dissimilarity between two values of one feature combines their direct
// (one-hop) and indirect (two-hop, through the other features' values)
// relationships. Clustering assigns objects to the cluster whose empirical
// value distribution is closest under the learned dissimilarity. The two
// relationships weigh equally (lambda = 0.5), and the assignment loop runs
// at most maxIters = 100 passes; neither is a setting.
package adc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/seeding"
)

const (
	// lambda balances direct and indirect coupling in the value
	// dissimilarity: each counts for half.
	lambda = 0.5
	// maxIters caps the assignment passes; the partition normally settles
	// well before.
	maxIters = 100
)

// Config parameterizes ADC.
type Config struct {
	K    int
	Rand *rand.Rand
}

// Result is the converged partition.
type Result struct {
	Labels []int
}

// graphMetric holds per-feature value dissimilarity matrices built from the
// coupling graph.
type graphMetric struct {
	dist [][][]float64 // dist[r][a][b]
}

// buildMetric constructs the value-level dissimilarities.
func buildMetric(rows [][]int, cardinalities []int) (*graphMetric, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("adc: empty data")
	}
	d := len(cardinalities)
	if d < 2 {
		return nil, errors.New("adc: metric needs at least two features")
	}
	// cond[r][t][a] = P(value on t | feature r has value a), flattened over b.
	cond := make([][][][]float64, d)
	counts := make([][]float64, d)
	for r := 0; r < d; r++ {
		counts[r] = make([]float64, cardinalities[r])
		cond[r] = make([][][]float64, d)
		for t := 0; t < d; t++ {
			if t == r {
				continue
			}
			cond[r][t] = make([][]float64, cardinalities[r])
			for a := range cond[r][t] {
				cond[r][t][a] = make([]float64, cardinalities[t])
			}
		}
	}
	for _, row := range rows {
		complete := true
		for _, v := range row {
			if v == categorical.Missing {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		for r, a := range row {
			counts[r][a]++
			for t, b := range row {
				if t != r {
					cond[r][t][a][b]++
				}
			}
		}
	}
	for r := 0; r < d; r++ {
		for t := 0; t < d; t++ {
			if t == r {
				continue
			}
			for a := range cond[r][t] {
				if counts[r][a] > 0 {
					for b := range cond[r][t][a] {
						cond[r][t][a][b] /= counts[r][a]
					}
				}
			}
		}
	}

	// Direct dissimilarity: average TV distance between one-hop conditional
	// profiles. Indirect: two-hop profiles P(·|a) smoothed through the
	// intermediate feature's own conditionals.
	direct := func(r, a, b int) float64 {
		var sum float64
		for t := 0; t < d; t++ {
			if t == r {
				continue
			}
			var tv float64
			for v := range cond[r][t][a] {
				tv += math.Abs(cond[r][t][a][v] - cond[r][t][b][v])
			}
			sum += tv / 2
		}
		return sum / float64(d-1)
	}
	indirect := func(r, a, b int) float64 {
		var sum float64
		for t := 0; t < d; t++ {
			if t == r {
				continue
			}
			// Two-hop profile on feature u ≠ r,t: P2(w|a) = Σ_v P(v|a)·P(w|v).
			for u := 0; u < d; u++ {
				if u == r || u == t {
					continue
				}
				var tv float64
				for w := 0; w < cardinalities[u]; w++ {
					var pa, pb float64
					for v := 0; v < cardinalities[t]; v++ {
						pa += cond[r][t][a][v] * cond[t][u][v][w]
						pb += cond[r][t][b][v] * cond[t][u][v][w]
					}
					tv += math.Abs(pa - pb)
				}
				sum += tv / 2
			}
		}
		pairs := float64((d - 1) * (d - 2))
		if pairs <= 0 {
			return 0
		}
		return sum / pairs
	}

	m := &graphMetric{dist: make([][][]float64, d)}
	for r := 0; r < d; r++ {
		mr := cardinalities[r]
		m.dist[r] = make([][]float64, mr)
		for a := 0; a < mr; a++ {
			m.dist[r][a] = make([]float64, mr)
		}
		for a := 0; a < mr; a++ {
			for b := a + 1; b < mr; b++ {
				var dd float64
				if d > 2 {
					dd = lambda*direct(r, a, b) + (1-lambda)*indirect(r, a, b)
				} else {
					dd = direct(r, a, b)
				}
				m.dist[r][a][b], m.dist[r][b][a] = dd, dd
			}
		}
	}
	return m, nil
}

func (m *graphMetric) valueDist(r, a, b int) float64 {
	if a == categorical.Missing || b == categorical.Missing {
		if a == b {
			return 0
		}
		return 1
	}
	return m.dist[r][a][b]
}

// Run learns the graph dissimilarity and partitions rows into cfg.K clusters
// by iteratively assigning each object to the cluster whose per-feature value
// distribution is nearest under the metric.
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("adc: empty data")
	}
	if cfg.Rand == nil {
		return nil, errors.New("adc: nil random source")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("adc: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	metric, err := buildMetric(rows, cardinalities)
	if err != nil {
		return nil, err
	}
	d := len(cardinalities)

	// Cluster statistics: per-feature value counts.
	counts := make([][][]float64, k)
	sizes := make([]float64, k)
	for l := range counts {
		counts[l] = make([][]float64, d)
		for r := range counts[l] {
			counts[l][r] = make([]float64, cardinalities[r])
		}
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	add := func(i, l int) {
		sizes[l]++
		for r, v := range rows[i] {
			if v != categorical.Missing {
				counts[l][r][v]++
			}
		}
		labels[i] = l
	}
	remove := func(i, l int) {
		sizes[l]--
		for r, v := range rows[i] {
			if v != categorical.Missing {
				counts[l][r][v]--
			}
		}
	}
	// Expected dissimilarity of object i to cluster l's value distribution.
	objDist := func(i, l int) float64 {
		if sizes[l] == 0 {
			return math.Inf(1)
		}
		var sum float64
		row := rows[i]
		for r, a := range row {
			if a == categorical.Missing {
				sum += 1
				continue
			}
			var e float64
			for v, c := range counts[l][r] {
				if c > 0 {
					e += c * metric.valueDist(r, a, v)
				}
			}
			sum += e / sizes[l]
		}
		return sum / float64(d)
	}

	for l, i := range seeding.DistinctRows(rows, k, cfg.Rand) {
		add(i, l)
	}
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := -1, math.Inf(1)
			for l := 0; l < k; l++ {
				if sizes[l] == 0 {
					continue
				}
				if dd := objDist(i, l); dd < bestD {
					best, bestD = l, dd
				}
			}
			if best < 0 || labels[i] == best {
				continue
			}
			if labels[i] >= 0 {
				remove(i, labels[i])
			}
			add(i, best)
			changed = true
		}
		// Repair emptied clusters by re-seeding each with the object
		// currently worst-served by its own cluster, so the sought k is
		// preserved (standard partitional-clustering repair).
		for l := 0; l < k; l++ {
			if sizes[l] > 0 {
				continue
			}
			worst, worstD := -1, -1.0
			for i := 0; i < n; i++ {
				if sizes[labels[i]] <= 1 {
					continue
				}
				if dd := objDist(i, labels[i]); dd > worstD {
					worst, worstD = i, dd
				}
			}
			if worst < 0 {
				break
			}
			remove(worst, labels[worst])
			add(worst, l)
			changed = true
		}
		if !changed {
			break
		}
	}
	dense, _ := categorical.DenseLabels(labels)
	return &Result{Labels: dense}, nil
}
