// Package similarity implements the object–cluster similarity measures of the
// MCDC paper: the frequency-based similarity of Eq. (1)–(2), its weighted
// form of Eq. (14), and the feature-contribution weighting of Eq. (15)–(18).
//
// The central type is Tables, an incrementally-maintained set of per-cluster,
// per-feature value-frequency counts. All clustering algorithms in this
// repository (MGCPL, WOCIL, k-modes variants) consume it, which keeps every
// similarity evaluation O(d) after O(1) bookkeeping per assignment change.
package similarity

import (
	"fmt"
	"math"

	"mcdc/internal/categorical"
)

// Tables maintains sufficient statistics of a partition of a categorical data
// set: for each cluster l, feature r, and value v, the number of cluster
// members taking that value, plus per-feature non-missing totals.
//
// The zero value is not usable; construct with NewTables.
type Tables struct {
	data  [][]int // value codes, data[i][r]
	card  []int   // per-feature domain sizes
	k     int     // number of cluster slots (some may be empty)
	size  []int   // n_l, objects per cluster
	count [][]int // count[l][r*stride+v]; flattened for locality
	seen  [][]int // seen[l][r]: non-missing members of cluster l on feature r
	// Global (whole data set) statistics used by the inter-cluster
	// difference term α of Eq. (15).
	globalCount []int // globalCount[r*stride+v]
	globalSeen  []int // per-feature non-missing totals over X
	stride      int   // max cardinality, for flat indexing
}

// NewTables builds empty frequency tables for k cluster slots over the given
// data set rows (value codes) and per-feature cardinalities.
func NewTables(rows [][]int, cardinalities []int, k int) (*Tables, error) {
	if k <= 0 {
		return nil, fmt.Errorf("similarity: k must be positive, got %d", k)
	}
	if len(rows) == 0 {
		return nil, categorical.ErrEmptyDataset
	}
	stride := 0
	for _, m := range cardinalities {
		if m <= 0 {
			return nil, fmt.Errorf("similarity: feature cardinality must be positive, got %d", m)
		}
		if m > stride {
			stride = m
		}
	}
	d := len(cardinalities)
	t := &Tables{
		data:        rows,
		card:        append([]int(nil), cardinalities...),
		k:           k,
		size:        make([]int, k),
		count:       make([][]int, k),
		seen:        make([][]int, k),
		globalCount: make([]int, d*stride),
		globalSeen:  make([]int, d),
		stride:      stride,
	}
	for l := 0; l < k; l++ {
		t.count[l] = make([]int, d*stride)
		t.seen[l] = make([]int, d)
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("similarity: row width %d, want %d", len(row), d)
		}
		for r, v := range row {
			if v == categorical.Missing {
				continue
			}
			if v < 0 || v >= cardinalities[r] {
				return nil, fmt.Errorf("similarity: row %d feature %d value %d outside domain [0, %d)", i, r, v, cardinalities[r])
			}
			t.globalCount[r*stride+v]++
			t.globalSeen[r]++
		}
	}
	return t, nil
}

// K returns the number of cluster slots (including empty ones).
func (t *Tables) K() int { return t.k }

// N returns the number of objects in the underlying data set.
func (t *Tables) N() int { return len(t.data) }

// D returns the number of features.
func (t *Tables) D() int { return len(t.card) }

// Size returns n_l, the number of objects currently assigned to cluster l.
func (t *Tables) Size(l int) int { return t.size[l] }

// Count returns the number of members of cluster l with value v on feature r.
func (t *Tables) Count(l, r, v int) int { return t.count[l][r*t.stride+v] }

// Add assigns object i to cluster l, updating all statistics.
func (t *Tables) Add(i, l int) {
	row := t.data[i]
	t.size[l]++
	cl, sl := t.count[l], t.seen[l]
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cl[r*t.stride+v]++
		sl[r]++
	}
}

// Remove detaches object i from cluster l, updating all statistics.
func (t *Tables) Remove(i, l int) {
	row := t.data[i]
	t.size[l]--
	cl, sl := t.count[l], t.seen[l]
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cl[r*t.stride+v]--
		sl[r]--
	}
}

// Move reassigns object i from cluster from to cluster to.
func (t *Tables) Move(i, from, to int) {
	if from == to {
		return
	}
	t.Remove(i, from)
	t.Add(i, to)
}

// FeatureSim returns s(x_ir, C_l) of Eq. (2): the fraction of cluster-l
// members sharing object i's value on feature r. Empty clusters and missing
// values yield 0.
func (t *Tables) FeatureSim(i, r, l int) float64 {
	v := t.data[i][r]
	if v == categorical.Missing || t.seen[l][r] == 0 {
		return 0
	}
	return float64(t.count[l][r*t.stride+v]) / float64(t.seen[l][r])
}

// Sim returns the object–cluster similarity s(x_i, C_l) of Eq. (1): the
// unweighted average of per-feature similarities.
func (t *Tables) Sim(i, l int) float64 {
	row := t.data[i]
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing || sl[r] == 0 {
			continue
		}
		sum += float64(cl[r*t.stride+v]) / float64(sl[r])
	}
	return sum / float64(len(row))
}

// WeightedSim returns the feature-weighted similarity of Eq. (14),
// s(x_i,C_l) = (1/d)·Σ_r ω_rl·s(x_ir,C_l), with w indexed as w[r].
func (t *Tables) WeightedSim(i, l int, w []float64) float64 {
	row := t.data[i]
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing || sl[r] == 0 {
			continue
		}
		sum += w[r] * float64(cl[r*t.stride+v]) / float64(sl[r])
	}
	return sum / float64(len(row))
}

// SimLOO is the leave-one-out variant of Sim: when member is true, object
// i's own contribution is removed from cluster l's counts before the
// frequencies are formed. Competitive learners must use this form — with
// plain Sim a singleton cluster scores a perfect 1.0 for its only member and
// can never be eliminated.
func (t *Tables) SimLOO(i, l int, member bool) float64 {
	row := t.data[i]
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cnt, seen := cl[r*t.stride+v], sl[r]
		if member {
			cnt--
			seen--
		}
		if seen <= 0 || cnt <= 0 {
			continue
		}
		sum += float64(cnt) / float64(seen)
	}
	return sum / float64(len(row))
}

// WeightedSimLOO is the leave-one-out variant of WeightedSim (see SimLOO).
func (t *Tables) WeightedSimLOO(i, l int, w []float64, member bool) float64 {
	row := t.data[i]
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cnt, seen := cl[r*t.stride+v], sl[r]
		if member {
			cnt--
			seen--
		}
		if seen <= 0 || cnt <= 0 {
			continue
		}
		sum += w[r] * float64(cnt) / float64(seen)
	}
	return sum / float64(len(row))
}

// WeightedTerms fills dst with cluster l's per-value summands of Eq. (14),
// dst[r*stride+v] = w[r]·count/seen, or 0 where seen or count is 0, and
// returns it (allocated when dst is nil). Paired with SumTerms it scores
// any non-member object in O(d) lookups, and the table stays valid until
// cluster l's counts or w change.
func (t *Tables) WeightedTerms(l int, w, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(t.card)*t.stride)
	}
	cl, sl := t.count[l], t.seen[l]
	for r, m := range t.card {
		base, seen := r*t.stride, sl[r]
		for v := 0; v < m; v++ {
			cnt := cl[base+v]
			if seen <= 0 || cnt <= 0 {
				dst[base+v] = 0
				continue
			}
			dst[base+v] = w[r] * float64(cnt) / float64(seen)
		}
	}
	return dst
}

// SumTerms returns (1/d)·Σ_r terms[r*stride+x_ir] over object i's
// non-missing features. With terms = WeightedTerms(l, w, …) it equals
// WeightedSimLOO(i, l, w, false) bit for bit: the same summands are added in
// the same order (a skipped summand there is a +0 here, which leaves a
// non-negative sum unchanged), then divided the same way.
func (t *Tables) SumTerms(i int, terms []float64) float64 {
	row := t.data[i]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		sum += terms[r*t.stride+v]
	}
	return sum / float64(len(row))
}

// InterClusterDifference computes α_rl of Eq. (15): the Euclidean separation
// between cluster l's value distribution on feature r and that of the rest of
// the data set, scaled by 1/√2 so it lies in [0,1].
func (t *Tables) InterClusterDifference(r, l int) float64 {
	inSeen := t.seen[l][r]
	outSeen := t.globalSeen[r] - inSeen
	if inSeen == 0 || outSeen == 0 {
		return 0
	}
	var sum float64
	base := r * t.stride
	for v := 0; v < t.card[r]; v++ {
		in := float64(t.count[l][base+v]) / float64(inSeen)
		out := float64(t.globalCount[base+v]-t.count[l][base+v]) / float64(outSeen)
		diff := in - out
		sum += diff * diff
	}
	return math.Sqrt(sum) / math.Sqrt2
}

// IntraClusterSimilarity computes β_rl of Eq. (16): the average, over cluster
// members, of the frequency of their own value — equivalently the sum of
// squared value frequencies (a purity/compactness measure in [0,1]).
func (t *Tables) IntraClusterSimilarity(r, l int) float64 {
	seen := t.seen[l][r]
	if seen == 0 {
		return 0
	}
	var sum float64
	base := r * t.stride
	for v := 0; v < t.card[r]; v++ {
		p := float64(t.count[l][base+v]) / float64(seen)
		sum += p * p
	}
	return sum
}

// FeatureWeights computes the probabilistic feature weights ω_rl of
// Eq. (15)–(18) for cluster l: ω_rl = H_rl / Σ_t H_tl with H_rl = α_rl·β_rl.
// When every contribution is zero (e.g. an empty cluster) it falls back to
// uniform weights 1/d, matching the initialization of Algorithm 1.
func (t *Tables) FeatureWeights(l int, dst []float64) []float64 {
	d := t.D()
	if dst == nil {
		dst = make([]float64, d)
	}
	var total float64
	for r := 0; r < d; r++ {
		h := t.InterClusterDifference(r, l) * t.IntraClusterSimilarity(r, l)
		dst[r] = h
		total += h
	}
	if total <= 0 {
		uniform := 1.0 / float64(d)
		for r := range dst {
			dst[r] = uniform
		}
		return dst
	}
	for r := range dst {
		dst[r] /= total
	}
	return dst
}

// Mode returns the per-feature majority value of cluster l (ties broken by
// the lowest code), or Missing on features where the cluster has no values.
func (t *Tables) Mode(l int) []int {
	mode := make([]int, t.D())
	for r := 0; r < t.D(); r++ {
		mode[r] = categorical.Missing
		best := 0
		base := r * t.stride
		for v := 0; v < t.card[r]; v++ {
			if c := t.count[l][base+v]; c > best {
				best = c
				mode[r] = v
			}
		}
	}
	return mode
}
