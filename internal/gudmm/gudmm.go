// Package gudmm implements the categorical side of GUDMM (Mousavi & Sehhati
// 2023): a generalized multi-aspect distance metric in which the distance
// between two values of one feature is derived from how differently they
// co-occur with the values of every other feature, with features weighted by
// their average mutual information. Clustering proceeds k-modes-style under
// the learned metric.
package gudmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/seeding"
)

// Metric holds the learned value-level distances and feature significances.
type Metric struct {
	// valueDist[r] is an m_r×m_r matrix of distances between values of
	// feature r, each in [0,1].
	valueDist [][][]float64
	// weight[r] is the mutual-information significance of feature r,
	// normalized to sum to 1.
	weight []float64
}

// NewMetric learns the multi-aspect distance metric from the data set.
func NewMetric(rows [][]int, cardinalities []int) (*Metric, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("gudmm: empty data")
	}
	d := len(cardinalities)
	if d < 2 {
		return nil, errors.New("gudmm: metric needs at least two features")
	}
	// Marginals and pairwise joints.
	marg := make([][]float64, d)
	for r := range marg {
		marg[r] = make([]float64, cardinalities[r])
	}
	joint := make([][][][]float64, d)
	for r := 0; r < d; r++ {
		joint[r] = make([][][]float64, d)
		for t := r + 1; t < d; t++ {
			m := make([][]float64, cardinalities[r])
			for a := range m {
				m[a] = make([]float64, cardinalities[t])
			}
			joint[r][t] = m
		}
	}
	valid := 0
	for _, row := range rows {
		ok := true
		for _, v := range row {
			if v == categorical.Missing {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		valid++
		for r, v := range row {
			marg[r][v]++
		}
		for r := 0; r < d; r++ {
			for t := r + 1; t < d; t++ {
				joint[r][t][row[r]][row[t]]++
			}
		}
	}
	if valid == 0 {
		return nil, errors.New("gudmm: no complete rows")
	}
	fn := float64(valid)
	for r := range marg {
		for v := range marg[r] {
			marg[r][v] /= fn
		}
	}

	// Pairwise normalized mutual information for the feature significances.
	mi := make([][]float64, d)
	for r := range mi {
		mi[r] = make([]float64, d)
	}
	for r := 0; r < d; r++ {
		for t := r + 1; t < d; t++ {
			var m, hr, ht float64
			for a := range joint[r][t] {
				for b, c := range joint[r][t][a] {
					if c == 0 {
						continue
					}
					p := c / fn
					m += p * math.Log(p/(marg[r][a]*marg[t][b]))
				}
			}
			for _, p := range marg[r] {
				if p > 0 {
					hr -= p * math.Log(p)
				}
			}
			for _, p := range marg[t] {
				if p > 0 {
					ht -= p * math.Log(p)
				}
			}
			if denom := math.Sqrt(hr * ht); denom > 0 {
				m /= denom
			} else {
				m = 0
			}
			mi[r][t], mi[t][r] = m, m
		}
	}
	weight := make([]float64, d)
	var wTotal float64
	for r := 0; r < d; r++ {
		var sum float64
		for t := 0; t < d; t++ {
			if t != r {
				sum += mi[r][t]
			}
		}
		weight[r] = sum / float64(d-1)
		wTotal += weight[r]
	}
	if wTotal <= 0 {
		for r := range weight {
			weight[r] = 1 / float64(d)
		}
	} else {
		for r := range weight {
			weight[r] /= wTotal
		}
	}

	// Value distances: for values a,b of feature r, the average over other
	// features t of the total-variation distance between the conditional
	// distributions P(·|a) and P(·|b) on t.
	cond := func(r, t, a int) []float64 {
		out := make([]float64, cardinalities[t])
		var total float64
		for b := range out {
			var c float64
			if r < t {
				c = joint[r][t][a][b]
			} else {
				c = joint[t][r][b][a]
			}
			out[b] = c
			total += c
		}
		if total > 0 {
			for b := range out {
				out[b] /= total
			}
		}
		return out
	}
	vd := make([][][]float64, d)
	for r := 0; r < d; r++ {
		m := cardinalities[r]
		vd[r] = make([][]float64, m)
		for a := 0; a < m; a++ {
			vd[r][a] = make([]float64, m)
		}
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				var sum float64
				for t := 0; t < d; t++ {
					if t == r {
						continue
					}
					pa, pb := cond(r, t, a), cond(r, t, b)
					var tv float64
					for v := range pa {
						tv += math.Abs(pa[v] - pb[v])
					}
					sum += tv / 2
				}
				dist := sum / float64(d-1)
				vd[r][a][b], vd[r][b][a] = dist, dist
			}
		}
	}
	return &Metric{valueDist: vd, weight: weight}, nil
}

// ValueDist returns the learned distance between values a and b of feature
// r. A Missing value is maximally distant from everything.
func (m *Metric) ValueDist(r, a, b int) float64 {
	if a == categorical.Missing || b == categorical.Missing {
		if a == b {
			return 0
		}
		return 1
	}
	return m.valueDist[r][a][b]
}

// Dist returns the weighted multi-aspect distance between two rows.
func (m *Metric) Dist(a, b []int) float64 {
	var sum float64
	for r := range a {
		sum += m.weight[r] * m.ValueDist(r, a[r], b[r])
	}
	return sum
}

// maxIters caps the k-modes passes under the learned metric; the partition
// normally settles well before.
const maxIters = 100

// Config parameterizes GUDMM clustering.
type Config struct {
	K    int
	Rand *rand.Rand
}

// Result is the converged partition.
type Result struct {
	Labels []int
}

// Run learns the metric and clusters rows into cfg.K clusters by k-modes
// under it (modes minimize the within-cluster value distances per feature).
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("gudmm: empty data")
	}
	if cfg.Rand == nil {
		return nil, errors.New("gudmm: nil random source")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("gudmm: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	metric, err := NewMetric(rows, cardinalities)
	if err != nil {
		return nil, err
	}
	d := len(cardinalities)

	modes := make([][]int, k)
	for l, i := range seeding.DistinctRows(rows, k, cfg.Rand) {
		modes[l] = append([]int(nil), rows[i]...)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}

	assign := func() bool {
		changed := false
		for i, row := range rows {
			best, bestD := 0, metric.Dist(row, modes[0])
			for l := 1; l < k; l++ {
				if dist := metric.Dist(row, modes[l]); dist < bestD {
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
		counts := make([][][]int, k)
		sizes := make([]int, k)
		for l := range counts {
			counts[l] = make([][]int, d)
			for r := range counts[l] {
				counts[l][r] = make([]int, cardinalities[r])
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
				modes[l] = append(modes[l][:0], rows[cfg.Rand.Intn(n)]...)
				continue
			}
			for r := 0; r < d; r++ {
				// The mode value minimizes the summed metric distance to the
				// cluster's values on this feature.
				best, bestCost := 0, math.Inf(1)
				for cand := 0; cand < cardinalities[r]; cand++ {
					var cost float64
					for v, c := range counts[l][r] {
						if c > 0 {
							cost += float64(c) * metric.ValueDist(r, cand, v)
						}
					}
					if cost < bestCost {
						best, bestCost = cand, cost
					}
				}
				modes[l][r] = best
			}
		}
	}

	assign()
	for iter := 0; iter < maxIters; iter++ {
		updateModes()
		if !assign() {
			break
		}
	}
	return &Result{Labels: labels}, nil
}
