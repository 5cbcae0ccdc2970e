// Package similarity implements the object–cluster similarity measures of the
// MCDC paper: the frequency-based similarity of Eq. (1)–(2), its weighted
// form of Eq. (14), and the feature-contribution weighting of Eq. (15)–(18).
//
// The central type is Tables, an incrementally-maintained set of per-cluster,
// per-feature value-frequency counts. MGCPL, the competitive baselines, WOCIL,
// model snapshots and the stream clusterer consume it, which keeps every
// similarity evaluation O(d) after O(1) bookkeeping per assignment change.
package similarity

import (
	"fmt"
	"math"

	"mcdc/internal/categorical"
)

// Index is the read-only part of frequency tables over one row set: each
// object's term-row offsets, the whole-data-set counts of Eq. (15), and the
// per-feature cardinalities and stride. NewIndex builds and validates it
// once; any number of Tables, on any goroutines, may then count partitions
// of the rows over it (Index.Tables) without copying or re-checking them.
//
// An Index restored from a TableState (FromState) has the counts and the
// schema but no rows.
type Index struct {
	n      int   // number of rows
	card   []int // per-feature domain sizes
	stride int   // max cardinality, for flat indexing
	// offs[i*d+r] is object i's term row on feature r, r*stride + x_ir, or
	// −1 where x_ir is Missing. Every offset is below d·stride.
	offs []int32
	// Whole-data-set statistics used by the inter-cluster difference term α
	// of Eq. (15).
	globalCount []int // globalCount[r*stride+v]
	globalSeen  []int // per-feature non-missing totals over X
}

// NewIndex validates the rows (value codes) against the per-feature
// cardinalities and indexes them: every row must have one value per feature,
// each Missing or inside its feature's domain.
func NewIndex(rows [][]int, cardinalities []int) (*Index, error) {
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
	if d > 0 && stride > math.MaxInt32/d {
		return nil, fmt.Errorf("similarity: %d features of up to %d values overflow the term-row offsets", d, stride)
	}
	x := &Index{
		n:           len(rows),
		card:        append([]int(nil), cardinalities...),
		stride:      stride,
		offs:        make([]int32, len(rows)*d),
		globalCount: make([]int, d*stride),
		globalSeen:  make([]int, d),
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("similarity: row width %d, want %d", len(row), d)
		}
		offs := x.offs[i*d : (i+1)*d]
		for r, v := range row {
			if v == categorical.Missing {
				offs[r] = -1
				continue
			}
			if v < 0 || v >= cardinalities[r] {
				return nil, fmt.Errorf("similarity: row %d feature %d value %d outside domain [0, %d)", i, r, v, cardinalities[r])
			}
			offs[r] = int32(r*stride + v)
			x.globalCount[r*stride+v]++
			x.globalSeen[r]++
		}
	}
	return x, nil
}

// N returns the number of indexed rows.
func (x *Index) N() int { return x.n }

// D returns the number of features.
func (x *Index) D() int { return len(x.card) }

// row returns object i's term-row offsets, one per feature.
func (x *Index) row(i int) []int32 {
	d := len(x.card)
	return x.offs[i*d : (i+1)*d : (i+1)*d]
}

// Tables returns empty frequency tables for k ≥ 1 cluster slots over the
// indexed rows.
func (x *Index) Tables(k int) *Tables {
	d := len(x.card)
	t := &Tables{
		ix:    x,
		k:     k,
		size:  make([]int, k),
		count: make([][]int, k),
		seen:  make([][]int, k),
	}
	for l := 0; l < k; l++ {
		t.count[l] = make([]int, d*x.stride)
		t.seen[l] = make([]int, d)
	}
	return t
}

// Tables maintains sufficient statistics of a partition of a categorical data
// set: for each cluster l, feature r, and value v, the number of cluster
// members taking that value, plus per-feature non-missing totals. The rows
// themselves, and the whole-data-set statistics, are read from the shared
// Index.
//
// The zero value is not usable; construct with NewTables or Index.Tables.
type Tables struct {
	ix    *Index
	k     int     // number of cluster slots (some may be empty)
	size  []int   // n_l, objects per cluster
	count [][]int // count[l][r*stride+v]; flattened for locality
	seen  [][]int // seen[l][r]: non-missing members of cluster l on feature r
}

// NewTables builds empty frequency tables for k cluster slots over the given
// data set rows (value codes) and per-feature cardinalities: NewIndex, then
// Index.Tables.
func NewTables(rows [][]int, cardinalities []int, k int) (*Tables, error) {
	if k <= 0 {
		return nil, fmt.Errorf("similarity: k must be positive, got %d", k)
	}
	x, err := NewIndex(rows, cardinalities)
	if err != nil {
		return nil, err
	}
	return x.Tables(k), nil
}

// Index returns the index the tables count over. Tables made by one
// Index.Tables share it.
func (t *Tables) Index() *Index { return t.ix }

// K returns the number of cluster slots (including empty ones).
func (t *Tables) K() int { return t.k }

// D returns the number of features.
func (t *Tables) D() int { return len(t.ix.card) }

// Size returns n_l, the number of objects currently assigned to cluster l.
func (t *Tables) Size(l int) int { return t.size[l] }

// Count returns the number of members of cluster l with value v on feature r.
func (t *Tables) Count(l, r, v int) int { return t.count[l][r*t.ix.stride+v] }

// Add assigns object i to cluster l, updating all statistics.
func (t *Tables) Add(i, l int) {
	t.size[l]++
	cl, sl := t.count[l], t.seen[l]
	for r, o := range t.ix.row(i) {
		if o < 0 {
			continue
		}
		cl[o]++
		sl[r]++
	}
}

// Remove detaches object i from cluster l, updating all statistics.
func (t *Tables) Remove(i, l int) {
	t.size[l]--
	cl, sl := t.count[l], t.seen[l]
	for r, o := range t.ix.row(i) {
		if o < 0 {
			continue
		}
		cl[o]--
		sl[r]--
	}
}

// WeightedSimLOO returns the feature-weighted object–cluster similarity of
// Eq. (14), s(x_i,C_l) = (1/d)·Σ_r ω_rl·s(x_ir,C_l), with w indexed as w[r]
// and s(x_ir,C_l) of Eq. (2) the fraction of cluster-l members sharing object
// i's value on feature r; unit weights give Eq. (1). Missing values and
// features with no cluster mass contribute nothing. A zero count adds
// ω·0/seen, which for a finite ω ≥ 0 is +0 and leaves the sum as it was.
//
// When member is true, object i's own contribution is left out of cluster l's
// counts before the fractions are formed. Competitive learners must score an
// object's own cluster this way: otherwise a singleton cluster scores a
// perfect 1.0 for its only member and can never be eliminated.
func (t *Tables) WeightedSimLOO(i, l int, w []float64, member bool) float64 {
	return t.WeightedSumLOO(i, l, w, member) / float64(t.D())
}

// WeightedSumLOO is WeightedSimLOO before the division by d: the sum of
// ω_rl·count/seen over object i's non-missing features r, in feature order
// from +0.
func (t *Tables) WeightedSumLOO(i, l int, w []float64, member bool) float64 {
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, o := range t.ix.row(i) {
		if o < 0 {
			continue
		}
		cnt, seen := cl[o], sl[r]
		if member {
			cnt--
			seen--
		}
		if seen > 0 {
			sum += w[r] * float64(cnt) / float64(seen)
		}
	}
	return sum
}

// DropEmpty removes the empty cluster slots and renumbers the survivors
// 0..K()−1 in index order, moving their counts with them. It sets slot[l] to
// old slot l's new index, −1 for a dropped slot; slot must have K() entries.
func (t *Tables) DropEmpty(slot []int) {
	slot = slot[:t.k]
	k := 0
	for l := range slot {
		if t.size[l] == 0 {
			slot[l] = -1
			continue
		}
		t.size[k], t.count[k], t.seen[k] = t.size[l], t.count[l], t.seen[l]
		slot[l] = k
		k++
	}
	t.k, t.size, t.count, t.seen = k, t.size[:k], t.count[:k], t.seen[:k]
}

// InterClusterDifference computes α_rl of Eq. (15): the Euclidean separation
// between cluster l's value distribution on feature r and that of the rest of
// the data set, scaled by 1/√2 so it lies in [0,1].
func (t *Tables) InterClusterDifference(r, l int) float64 {
	x := t.ix
	inSeen := t.seen[l][r]
	outSeen := x.globalSeen[r] - inSeen
	if inSeen == 0 || outSeen == 0 {
		return 0
	}
	var sum float64
	base := r * x.stride
	for v := 0; v < x.card[r]; v++ {
		in := float64(t.count[l][base+v]) / float64(inSeen)
		out := float64(x.globalCount[base+v]-t.count[l][base+v]) / float64(outSeen)
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
	base := r * t.ix.stride
	for v := 0; v < t.ix.card[r]; v++ {
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
