// Package linkage implements the agglomerative hierarchical-clustering
// substrate discussed in the paper's related-work stream: single, complete
// and average linkage over an arbitrary dissimilarity matrix, producing a
// dendrogram that can be cut at any number of clusters. MGCPL is positioned
// as the efficient alternative to this substrate; the package exists so the
// comparison (and ROCK-style analyses) can be made concrete.
package linkage

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mcdc/internal/parallel"
	"mcdc/internal/similarity"
)

// Method selects the Lance–Williams update rule.
type Method int

const (
	// Single links clusters by their closest member pair.
	Single Method = iota + 1
	// Complete links clusters by their farthest member pair.
	Complete
	// Average links clusters by the mean pairwise dissimilarity (UPGMA).
	Average
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Merge records one agglomeration step: clusters A and B (node ids) joined at
// the given dissimilarity height into node id Parent.
type Merge struct {
	A, B   int
	Parent int
	Height float64
}

// Dendrogram is the full merge tree over n leaves. Leaves are nodes 0..n-1;
// internal nodes are n..2n-2 in merge order.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// validateCondensed rejects NaN and negative entries in a packed
// dissimilarity matrix — both would silently corrupt the merge selection
// (NaN fails every comparison; negative distances break the reducibility the
// chain algorithm relies on), so every build entry point refuses them with
// an error naming the offending pair.
func validateCondensed(d *similarity.Condensed) error {
	n := d.N()
	for i := 0; i < n; i++ {
		for jj, v := range d.UpperRow(i) {
			if math.IsNaN(v) {
				return fmt.Errorf("linkage: dissimilarity at (%d, %d) is NaN", i, i+1+jj)
			}
			if v < 0 {
				return fmt.Errorf("linkage: negative dissimilarity %v at (%d, %d)", v, i, i+1+jj)
			}
		}
	}
	return nil
}

// mergeLess orders two candidate merges under the package's total order on
// cluster pairs: the linkage dissimilarity first, then the size of the
// cluster the merge would create, then the slot pair (slots are min-leaf
// indices — every merge recycles the lower slot, so a slot id is the
// smallest original leaf in the cluster). For single and complete linkage
// the working entries v are the linkage dissimilarities themselves; for
// average linkage they are inter-cluster dissimilarity *sums* (see
// lanceWilliams) and p carries the pair's size product |A|·|B|, so the means
// v1/p1 vs v2/p2 are compared division-free by cross-multiplication.
//
// The size component is what keeps the order reducible under ties: a freshly
// merged cluster is strictly larger than either parent, so a Lance–Williams
// update can never produce a key below the merge that created it, which is
// exactly the property that makes the greedy scan and the nearest-neighbour
// chain resolve every tie identically and agree on one dendrogram. The slot
// pair makes the order total (distinct coexisting clusters have distinct min
// leaves), so argmins are unique and independent of scan order.
//
// Exactness bound: the cross-products are exact only while sum×product stays
// within float64's 2^53 exact-integer range — comfortable for the supported
// sweeps (n = 5000 with unit-scale grids peaks around 2·10¹⁵), but at
// n ≳ 2·10⁴ the products can round and the on-grid identity guarantee
// degrades to floating-point tie equivalence, like off-grid inputs.
func mergeLess(method Method, v1 float64, p1, s1, lo1, hi1 int, v2 float64, p2, s2, lo2, hi2 int) bool {
	a, b := v1, v2
	if method == Average {
		a, b = v1*float64(p2), v2*float64(p1)
	}
	if a != b {
		return a < b
	}
	if s1 != s2 {
		return s1 < s2
	}
	if lo1 != lo2 {
		return lo1 < lo2
	}
	return hi1 < hi2
}

// lanceWilliams folds cluster hi into cluster lo on the working matrix:
// d(lo, m) becomes the method's combination of d(lo, m) and d(hi, m) for
// every other alive cluster m. Both the scan and the chain agglomerator call
// this with lo < hi, so the floating-point expression evaluated for a given
// merge is identical on either path.
//
// For average linkage the working matrix holds inter-cluster dissimilarity
// SUMS rather than means: the update is then a pure addition, T(lo∪hi, m) =
// T(lo, m) + T(hi, m). Additions commute where the incremental weighted-mean
// recurrence does not — on inputs whose values share an exact binary grid
// (integers, dyadic rationals, normalized Hamming with a power-of-two
// feature count) every sum is exact no matter which merge order produced it,
// so the scan and the chain see bit-identical selection values and cannot
// diverge on derived ties. Means are recovered only at comparison time
// (mergeLess cross-multiplies) and at merge time (the recorded height),
// never stored.
func lanceWilliams(d *similarity.Condensed, method Method, alive []bool, lo, hi int) {
	n := d.N()
	for m := 0; m < n; m++ {
		if !alive[m] || m == lo || m == hi {
			continue
		}
		switch method {
		case Single:
			d.Set(lo, m, math.Min(d.At(lo, m), d.At(hi, m)))
		case Complete:
			d.Set(lo, m, math.Max(d.At(lo, m), d.At(hi, m)))
		case Average:
			d.Set(lo, m, d.At(lo, m)+d.At(hi, m))
		}
	}
}

// mergeHeight converts a working-matrix entry for a selected merge into the
// linkage height: the entry itself for single/complete, the mean T/(|A|·|B|)
// for average (whose working entries are sums).
func mergeHeight(method Method, v float64, sizeA, sizeB int) float64 {
	if method == Average {
		return v / float64(sizeA*sizeB)
	}
	return v
}

// BuildCondensed is BuildCondensedWorkers with GOMAXPROCS workers.
func BuildCondensed(dist *similarity.Condensed, method Method) (*Dendrogram, error) {
	return BuildCondensedWorkers(dist, method, 0)
}

// BuildCondensedWorkers runs agglomerative clustering over a condensed
// dissimilarity matrix: O(n²/2) working memory (a condensed clone) and
// O(n³/2) time via per-step nearest-pair scans. Each scan is row-chunked
// across at most `workers` goroutines (≤ 0 → GOMAXPROCS, 1 → sequential)
// with per-chunk minima folded in chunk order under the package's total
// order on candidate merges (mergeLess) — the argmin is unique, so the
// dendrogram is bit-for-bit identical at any parallelism level and (after
// Canonical reordering) to the O(n²) chain path in BuildChainWorkers, for
// which this scan is the cross-check oracle.
func BuildCondensedWorkers(dist *similarity.Condensed, method Method, workers int) (*Dendrogram, error) {
	n := dist.N()
	if n == 0 {
		return nil, errors.New("linkage: empty dissimilarity matrix")
	}
	if method != Single && method != Complete && method != Average {
		return nil, fmt.Errorf("linkage: unknown method %v", method)
	}
	if err := validateCondensed(dist); err != nil {
		return nil, err
	}

	// Working copy; entries valid only for alive clusters.
	d := dist.Clone()
	alive := make([]bool, n)
	size := make([]int, n)
	node := make([]int, n) // dendrogram node id of working slot i
	for i := 0; i < n; i++ {
		alive[i] = true
		size[i] = 1
		node[i] = i
	}

	den := &Dendrogram{N: n}
	nextID := n
	for step := 0; step < n-1; step++ {
		bi, bj, best := nearestAlivePair(d, method, alive, size, workers)
		if bi < 0 {
			break
		}
		den.Merges = append(den.Merges, Merge{A: node[bi], B: node[bj], Parent: nextID, Height: mergeHeight(method, best, size[bi], size[bj])})
		lanceWilliams(d, method, alive, bi, bj)
		size[bi] += size[bj]
		alive[bj] = false
		node[bi] = nextID
		nextID++
	}
	if method == Average {
		exactAverageHeights(dist, den)
	}
	return den, nil
}

// pairCand is one candidate merge of the nearest-pair scan: the working
// entry d for slot pair (i, j), the merged size sum, and the size product
// prod (the mean denominator under average linkage).
type pairCand struct {
	i, j, sum, prod int
	d               float64
}

// nearestAlivePair finds the alive pair (i, j>i) minimizing the package's
// total merge order (mergeLess): smallest linkage dissimilarity, ties broken
// by merged size then slot pair. The order is total, so the argmin is unique
// and the chunk-ordered fold returns it at any parallelism level. Each row
// streams its contiguous UpperRow slice, which is what makes the O(n²/2)
// scan cache-friendly.
func nearestAlivePair(d *similarity.Condensed, method Method, alive []bool, size []int, workers int) (int, int, float64) {
	n := d.N()
	none := pairCand{i: -1, j: -1, d: math.Inf(1)}
	best, err := parallel.MapReduce(parallel.Gate(workers, n*n/2), n, none,
		func(lo, hi int) (pairCand, error) {
			b := none
			for i := lo; i < hi; i++ {
				if !alive[i] {
					continue
				}
				row := d.UpperRow(i)
				for jj, v := range row {
					j := i + 1 + jj
					if !alive[j] || (method != Average && v > b.d) {
						continue
					}
					if b.i < 0 || mergeLess(method, v, size[i]*size[j], size[i]+size[j], i, j, b.d, b.prod, b.sum, b.i, b.j) {
						b = pairCand{i: i, j: j, sum: size[i] + size[j], prod: size[i] * size[j], d: v}
					}
				}
			}
			return b, nil
		},
		func(acc, next pairCand) pairCand {
			if next.i >= 0 && (acc.i < 0 || mergeLess(method, next.d, next.prod, next.sum, next.i, next.j, acc.d, acc.prod, acc.sum, acc.i, acc.j)) {
				return next
			}
			return acc
		})
	parallel.Must(err)
	return best.i, best.j, best.d
}

// Cut returns flat cluster labels for the partition into k clusters: the
// state after n−k merges. Labels are dense 0..k'-1 (k' < k if the tree has
// fewer merges than needed).
func (den *Dendrogram) Cut(k int) []int {
	if k < 1 {
		k = 1
	}
	parent := make([]int, den.N+len(den.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	steps := den.N - k
	if steps > len(den.Merges) {
		steps = len(den.Merges)
	}
	for s := 0; s < steps; s++ {
		m := den.Merges[s]
		parent[find(m.A)] = m.Parent
		parent[find(m.B)] = m.Parent
	}
	remap := make(map[int]int)
	labels := make([]int, den.N)
	for i := 0; i < den.N; i++ {
		root := find(i)
		l, ok := remap[root]
		if !ok {
			l = len(remap)
			remap[root] = l
		}
		labels[i] = l
	}
	return labels
}

// Heights returns the merge heights in order, useful for monotonicity checks
// and for locating "natural" cuts (large height gaps).
func (den *Dendrogram) Heights() []float64 {
	out := make([]float64, len(den.Merges))
	for i, m := range den.Merges {
		out[i] = m.Height
	}
	return out
}

// exactAverageHeights replaces the incrementally maintained average-linkage
// heights with their canonical evaluation: for each merge A∪B, the flat sum
// of the original dissimilarities over A×B (children ordered min-leaf first,
// members in ascending leaf order) divided by |A|·|B|. The incremental
// Lance–Williams recurrence computes the same rational value but associates
// its floating-point additions by merge *time*, which differs between the
// scan and the chain — leaving the two paths' heights apart by an ulp. The
// canonical evaluation depends only on the tree, so both builders run it and
// their heights become bit-for-bit identical (single and complete linkage
// need no such pass: min/max arithmetic is order-independent). Each leaf
// pair is summed exactly once across all merges, so the pass is O(n²) —
// free next to either builder.
func exactAverageHeights(orig *similarity.Condensed, den *Dendrogram) {
	members := make([][]int, den.N+len(den.Merges))
	for i := 0; i < den.N; i++ {
		members[i] = []int{i}
	}
	for s, m := range den.Merges {
		a, b := members[m.A], members[m.B]
		if b[0] < a[0] {
			a, b = b, a
		}
		var t float64
		for _, x := range a {
			for _, y := range b {
				t += orig.At(x, y)
			}
		}
		den.Merges[s].Height = t / (float64(len(a)) * float64(len(b)))
		merged := make([]int, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] < b[j] {
				merged = append(merged, a[i])
				i++
			} else {
				merged = append(merged, b[j])
				j++
			}
		}
		merged = append(append(merged, a[i:]...), b[j:]...)
		members[m.Parent] = merged
		members[m.A], members[m.B] = nil, nil // each node is a child once
	}
}

// Canonical returns the dendrogram in canonical form: merges sorted by
// (height, merged size, min-leaf pair) — the same total order the greedy
// scan selects merges under — with each merge's children ordered min-leaf
// first and parent ids relabelled n..2n-2 in sorted order. Two equivalent
// dendrograms over the same merge set canonicalize to identical Merges
// slices even when they were emitted in different orders, which is how the
// chain agglomerator (local, reciprocal-nearest-neighbour merge order) is
// proven against the scan (global, height-sorted merge order). The scan's
// output is already canonical, so Canonical is idempotent on it; Cut and
// NaturalCut require the canonical (height-sorted) order to be meaningful,
// which is why BuildChain canonicalizes before returning.
//
// The sort key is intrinsic to the tree: each cluster's size and minimum
// leaf are recomputed from the merges, and within one dendrogram the key is
// strictly totally ordered (every merge retires a distinct min-leaf, and a
// parent's merged size strictly exceeds its childrens'), so the result is
// unique. Children precede parents in the key order on every
// exact-arithmetic input; the one floating-point exception (off-grid
// average heights rounding a parent an ulp below its child) is repaired by
// a deterministic priority-topological pass, keeping the output a
// structurally valid dendrogram in all cases.
func (den *Dendrogram) Canonical() *Dendrogram {
	n := den.N
	total := n + len(den.Merges)
	size := make([]int, total)
	leaf := make([]int, total) // smallest original leaf in the node's cluster
	for i := 0; i < n; i++ {
		size[i] = 1
		leaf[i] = i
	}
	type rec struct {
		m      Merge
		sum    int // size of the merged cluster
		lo, hi int // sorted min leaves of the two children
	}
	recs := make([]rec, len(den.Merges))
	for s, m := range den.Merges {
		size[m.Parent] = size[m.A] + size[m.B]
		a, b := m.A, m.B
		if leaf[b] < leaf[a] {
			a, b = b, a
		}
		leaf[m.Parent] = leaf[a]
		recs[s] = rec{
			m:   Merge{A: a, B: b, Parent: m.Parent, Height: m.Height},
			sum: size[m.Parent], lo: leaf[a], hi: leaf[b],
		}
	}
	sort.Slice(recs, func(x, y int) bool {
		rx, ry := &recs[x], &recs[y]
		if rx.m.Height != ry.m.Height {
			return rx.m.Height < ry.m.Height
		}
		if rx.sum != ry.sum {
			return rx.sum < ry.sum
		}
		if rx.lo != ry.lo {
			return rx.lo < ry.lo
		}
		return rx.hi < ry.hi
	})
	// The sorted order almost always has children before parents already (a
	// parent's height is ≥ its children's and its merged size is strictly
	// larger). The one exception: off-grid average-linkage inputs, where
	// exactAverageHeights can round a parent's height one ulp *below* a
	// child's. A priority-topological pass repairs that deterministically —
	// each merge is emitted at the earliest sorted position at which both its
	// children exist — and is the identity whenever the sorted order is
	// already consistent, i.e. on every exact-arithmetic input. Each node is
	// the child of exactly one merge, so a blocked merge waits on a single
	// releasing node and the pass is O(n).
	placed := make([]bool, total)
	for i := 0; i < n; i++ {
		placed[i] = true
	}
	waiter := make(map[int]int) // node id → sorted index of the merge waiting on it
	order := make([]int, 0, len(recs))
	blockedOn := func(ri int) (int, bool) {
		if !placed[recs[ri].m.A] {
			return recs[ri].m.A, true
		}
		if !placed[recs[ri].m.B] {
			return recs[ri].m.B, true
		}
		return 0, false
	}
	var emit func(ri int)
	emit = func(ri int) {
		if blk, blocked := blockedOn(ri); blocked {
			waiter[blk] = ri
			return
		}
		order = append(order, ri)
		parent := recs[ri].m.Parent
		placed[parent] = true
		if next, ok := waiter[parent]; ok {
			delete(waiter, parent)
			emit(next)
		}
	}
	for ri := range recs {
		emit(ri)
	}
	remap := make([]int, total)
	for i := 0; i < n; i++ {
		remap[i] = i
	}
	for s, ri := range order {
		remap[recs[ri].m.Parent] = n + s
	}
	out := &Dendrogram{N: n, Merges: make([]Merge, len(order))}
	for s, ri := range order {
		out.Merges[s] = Merge{
			A: remap[recs[ri].m.A], B: remap[recs[ri].m.B],
			Parent: n + s, Height: recs[ri].m.Height,
		}
	}
	return out
}

// HammingCondensed builds the normalized Hamming dissimilarity matrix of a
// categorical data set in condensed triangular form, the input of
// BuildCondensed and BuildChain. The O(n²·d) fill is tiled across all
// available cores; use HammingCondensedWorkers to bound the parallelism.
func HammingCondensed(rows [][]int) *similarity.Condensed {
	return similarity.DissimilarityCondensed(rows, 0)
}

// HammingCondensedWorkers is HammingCondensed with an explicit worker bound
// (≤ 0 → GOMAXPROCS, 1 → sequential). The result is identical at any
// parallelism level.
func HammingCondensedWorkers(rows [][]int, workers int) *similarity.Condensed {
	return similarity.DissimilarityCondensed(rows, workers)
}

// NaturalCut inspects the dendrogram's height sequence and returns the k
// whose cut sits just below the largest height jump — a simple heuristic for
// the "natural" number of clusters, bounded to [2, maxK].
func (den *Dendrogram) NaturalCut(maxK int) int {
	h := den.Heights()
	if len(h) < 2 {
		return 1
	}
	type gap struct {
		idx  int
		size float64
	}
	gaps := make([]gap, 0, len(h)-1)
	for i := 1; i < len(h); i++ {
		gaps = append(gaps, gap{idx: i, size: h[i] - h[i-1]})
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a].size > gaps[b].size })
	k := den.N - gaps[0].idx
	if k < 2 {
		k = 2
	}
	if maxK >= 2 && k > maxK {
		k = maxK
	}
	return k
}
