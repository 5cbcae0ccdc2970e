// Package fkmawcw implements the FKMAWCW baseline (Oskouei, Balafar &
// Motamed 2021): categorical fuzzy k-modes with automated per-cluster
// attribute-weight and cluster-weight learning. The implementation follows
// the cited paper's alternating-optimization scheme — fuzzy memberships,
// weighted-majority modes, inverse-dispersion attribute weights and
// inverse-dispersion cluster weights — on the simple-matching dissimilarity.
// The cited defaults are constants here: fuzzifier m = 2, attribute-weight
// exponent q = 2, and at most maxIters = 100 passes.
package fkmawcw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mcdc/internal/categorical"
	"mcdc/internal/seeding"
)

// Config parameterizes FKMAWCW.
type Config struct {
	K    int
	Rand *rand.Rand
}

// Result carries the converged fuzzy partition, hardened labels, and the
// learned weights.
type Result struct {
	Labels         []int       // argmax memberships
	Membership     [][]float64 // u[i][l]
	AttrWeights    [][]float64 // w[l][r]
	ClusterWeights []float64   // c[l]
}

const (
	eps = 1e-9
	// m > 1 is the fuzzifier, which controls membership softness, and q > 1
	// controls attribute-weight softness; both take the cited default. They
	// are floating-point constants, so 1/(m-1) divides in floating point.
	m = 2.0
	q = 2.0
	// maxIters caps the alternating updates; the hardened partition
	// normally settles well before.
	maxIters = 100
)

// Run clusters integer-coded rows into cfg.K fuzzy clusters and returns the
// hardened partition.
func Run(rows [][]int, cardinalities []int, cfg Config) (*Result, error) {
	n := len(rows)
	if n == 0 {
		return nil, errors.New("fkmawcw: empty data")
	}
	if cfg.Rand == nil {
		return nil, errors.New("fkmawcw: nil random source")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("fkmawcw: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	d := len(cardinalities)

	// Farthest-first seeds: fuzzy memberships flatten out when two initial
	// modes are close, which hardens into fewer than k clusters — the
	// collapse failure mode this algorithm is known for. Spread seeds keep
	// it rare (it still occurs on hard data sets, as the paper reports).
	modes := make([][]int, k)
	for l, i := range seeding.FarthestFirst(rows, k, cfg.Rand) {
		modes[l] = append([]int(nil), rows[i]...)
	}
	w := make([][]float64, k)
	for l := range w {
		w[l] = make([]float64, d)
		for r := range w[l] {
			w[l][r] = 1 / float64(d)
		}
	}
	c := make([]float64, k)
	for l := range c {
		c[l] = 1 / float64(k)
	}
	u := make([][]float64, n)
	for i := range u {
		u[i] = make([]float64, k)
	}

	// dist is the attribute- and cluster-weighted dissimilarity D_il.
	dist := func(i, l int) float64 {
		var s float64
		row := rows[i]
		for r := range row {
			if row[r] != modes[l][r] || row[r] == categorical.Missing {
				s += math.Pow(w[l][r], q)
			}
		}
		return c[l] * s
	}

	updateMembership := func() {
		pw := 1 / (m - 1)
		for i := range u {
			var total float64
			for l := 0; l < k; l++ {
				v := math.Pow(1/(dist(i, l)+eps), pw)
				u[i][l] = v
				total += v
			}
			for l := 0; l < k; l++ {
				u[i][l] /= total
			}
		}
	}

	updateModes := func() {
		for l := 0; l < k; l++ {
			for r := 0; r < d; r++ {
				scores := make([]float64, cardinalities[r])
				for i := range rows {
					v := rows[i][r]
					if v == categorical.Missing {
						continue
					}
					scores[v] += math.Pow(u[i][l], m)
				}
				best, bestS := modes[l][r], -1.0
				for v, s := range scores {
					if s > bestS {
						best, bestS = v, s
					}
				}
				modes[l][r] = best
			}
		}
	}

	updateWeights := func() {
		pw := 1 / (q - 1)
		for l := 0; l < k; l++ {
			// Per-attribute fuzzy dispersion of cluster l.
			disp := make([]float64, d)
			for i := range rows {
				um := math.Pow(u[i][l], m)
				for r := range rows[i] {
					if rows[i][r] != modes[l][r] || rows[i][r] == categorical.Missing {
						disp[r] += um
					}
				}
			}
			var total float64
			for r := range disp {
				disp[r] = math.Pow(1/(disp[r]+eps), pw)
				total += disp[r]
			}
			for r := range disp {
				w[l][r] = disp[r] / total
			}
		}
		// Cluster weights: inverse of the *per-member* (fuzzy-mass
		// normalized) dispersion. Normalizing matters: with raw totals a
		// shrinking cluster looks ever more compact, its weight explodes,
		// membership collapses further, and the cluster dies — a positive
		// feedback loop that destroys the sought k.
		var total float64
		for l := 0; l < k; l++ {
			var dl, mass float64
			for i := range rows {
				um := math.Pow(u[i][l], m)
				mass += um
				for r := range rows[i] {
					if rows[i][r] != modes[l][r] || rows[i][r] == categorical.Missing {
						dl += um * math.Pow(w[l][r], q)
					}
				}
			}
			c[l] = math.Pow(1/(dl/(mass+eps)+eps), 1/(m-1))
			total += c[l]
		}
		for l := range c {
			c[l] /= total
		}
	}

	harden := func() []int {
		labels := make([]int, n)
		for i := range u {
			best, bestU := 0, u[i][0]
			for l := 1; l < k; l++ {
				if u[i][l] > bestU {
					best, bestU = l, u[i][l]
				}
			}
			labels[i] = best
		}
		return labels
	}

	updateMembership()
	prev := harden()
	for iter := 0; iter < maxIters; iter++ {
		updateModes()
		updateWeights()
		updateMembership()
		cur := harden()
		same := slices.Equal(cur, prev)
		prev = cur
		if same {
			break
		}
	}
	return &Result{
		Labels:         prev,
		Membership:     u,
		AttrWeights:    w,
		ClusterWeights: c,
	}, nil
}
