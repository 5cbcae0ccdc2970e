package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/parallel"
	"mcdc/internal/similarity"
)

// Defaults for the MGCPL hyper-parameters, matching §IV-A of the paper
// (η = 0.03, k₀ = √n), and the fixed bounds of its loops.
const (
	DefaultLearningRate = 0.03

	// maxInnerIters caps the passes of the inner competitive-penalization
	// loop per granularity level, and the learning passes of the two
	// ablation baselines. It is a safety bound: the loop normally converges
	// when the partition stabilizes.
	maxInnerIters = 100
	// maxEpochs caps the number of granularity levels explored.
	maxEpochs = 60

	// defaultRivalThreshold is the redundancy gate of the rival penalty: a
	// runner-up whose (weighted, leave-one-out) similarity reaches this
	// fraction of the winner's is considered to overlap the winner's basin
	// and is penalized toward elimination.
	defaultRivalThreshold = 0.85
)

// ErrNoRand is returned when a learner is run without a random source.
var ErrNoRand = errors.New("core: nil random source (provide *rand.Rand)")

// MGCPLConfig parameterizes Algorithm 1. The loop bounds are not settings:
// every level runs at most maxInnerIters passes, and at most maxEpochs
// levels are learned.
type MGCPLConfig struct {
	// LearningRate is η of Eq. (12)–(13). Defaults to DefaultLearningRate.
	LearningRate float64
	// InitialK is k₀. Defaults to ⌈√n⌉ (the paper's setting).
	InitialK int
	// RivalThreshold gates the rival penalty: only runner-up clusters whose
	// similarity reaches this fraction of the winner's are treated as
	// redundant and penalized toward elimination. Lower values coarsen the
	// final granularity; higher values preserve finer clusters. Defaults to
	// 0.85. (This resolves the elimination-strength ambiguity of the
	// paper's Eq. (13); learnLevel's rival-penalty comment gives the
	// reasoning.)
	RivalThreshold float64
	// Workers bounds the parallelism of the order-independent parts of the
	// learning (per-cluster feature-weight refreshes, and the fan-out of
	// ensemble repeats in PooledEncoding). ≤ 0 resolves to GOMAXPROCS, 1 is
	// fully sequential; results are bit-for-bit identical at any setting.
	// The competitive-penalization object loop itself is inherently
	// sequential — each presentation updates the state the next one reads —
	// as is the epoch loop (each epoch inherits the previous epoch's k), so
	// those stay single-threaded by design.
	Workers int
	// Rand drives seed selection. Required.
	Rand *rand.Rand
}

func (c *MGCPLConfig) withDefaults(n int) MGCPLConfig {
	out := *c
	if out.LearningRate <= 0 {
		out.LearningRate = DefaultLearningRate
	}
	if out.InitialK <= 0 {
		out.InitialK = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if out.InitialK < 2 {
		out.InitialK = 2
	}
	if out.InitialK > n {
		out.InitialK = n
	}
	if out.RivalThreshold <= 0 || out.RivalThreshold > 1 {
		out.RivalThreshold = defaultRivalThreshold
	}
	return out
}

// Granularity is one converged level of the multi-granular analysis: a
// partition of the n objects into K clusters with dense labels 0..K-1.
type Granularity struct {
	K      int
	Labels []int
}

// MGCPLResult carries the output of Algorithm 1: the series of partitions
// Γ = {Y₁,…,Y_σ} at decreasing numbers of clusters κ = {k₁,…,k_σ}.
type MGCPLResult struct {
	Levels []Granularity
}

// Kappa returns κ, the learned numbers of clusters per granularity level.
func (r *MGCPLResult) Kappa() []int {
	out := make([]int, len(r.Levels))
	for i := range r.Levels {
		out[i] = r.Levels[i].K
	}
	return out
}

// Sigma returns σ, the number of granularity levels learned.
func (r *MGCPLResult) Sigma() int { return len(r.Levels) }

// Final returns the coarsest partition Y_σ. It panics only if the result is
// empty, which RunMGCPL never produces.
func (r *MGCPLResult) Final() Granularity { return r.Levels[len(r.Levels)-1] }

// Encoding returns the Γ embedding consumed by CAME: an n×σ matrix whose
// column j is the label vector of granularity level j.
func (r *MGCPLResult) Encoding() [][]int {
	if len(r.Levels) == 0 {
		return nil
	}
	return encode(r)
}

// encode lays the levels of non-empty results side by side, in order, as an
// n×Σσ matrix whose row i holds object i's label at every level. The rows
// share one backing array, each capped at its own width so an append to one
// row cannot spill into the next.
func encode(results ...*MGCPLResult) [][]int {
	n := len(results[0].Levels[0].Labels)
	width := 0
	for _, mg := range results {
		width += len(mg.Levels)
	}
	flat := make([]int, n*width)
	out := make([][]int, n)
	for i := range out {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		j := 0
		for _, mg := range results {
			for _, lv := range mg.Levels {
				row[j] = lv.Labels[i]
				j++
			}
		}
		out[i] = row
	}
	return out
}

// mgcplState is the mutable learning state for one granularity level. Its
// cluster slots are the tables' slots: eliminate drops the emptied ones and
// renumbers the survivors in index order, and every per-cluster slice
// compacts with them.
type mgcplState struct {
	tables *similarity.Tables
	assign []int       // assign[i]: current cluster of object i, -1 if none
	g      []int       // winning counts of the previous pass (Eq. 7)
	gCur   []int       // winning counts being accumulated this pass
	delta  []float64   // δ_l driving the sigmoid weight u_l (Eq. 11)
	u      []float64   // u[l] = sigmoidWeight(δ_l), rewritten wherever δ_l is
	omega  [][]float64 // ω_rl feature weights per cluster (Eq. 18)
	eta    float64
	order  []int // presentation order, reshuffled every pass
	rng    *rand.Rand
	// rivalThreshold gates the rival penalty: only rivals whose similarity
	// ratio to the winner exceeds it are treated as redundant and penalized.
	rivalThreshold float64
	// workers bounds the parallelism of the per-cluster weight refresh.
	workers int
	// terms is the value-major term matrix, one column per cluster: column
	// l holds cluster l's summands of Eq. (14), ω_rl·count/seen for each
	// feature r and value v (Tables.WriteTermColumn). One pass over an
	// object's d rows of it (Tables.SumTermColumns) sums the object's
	// similarity to every cluster, times d, into acc[l]. stale lists the
	// columns that a change to their cluster's members or ω_l made stale,
	// once each (isStale[l] marks the listed ones); pickWinnerAndRival
	// rewrites a stale column before it is read, and an elimination, which
	// moves every column, lists them all.
	terms   []float64
	acc     []float64
	score   []float64 // pickWinnerAndRival's per-slot scores of Eq. (6)
	stale   []int
	isStale []bool
	slot    []int // eliminate's map from old slots to new ones
}

// weight returns u_l = 1/(1+e^(−10δ+5)), Eq. (11).
func sigmoidWeight(delta float64) float64 {
	return 1 / (1 + math.Exp(-10*delta+5))
}

// RunMGCPL executes Algorithm 1 on integer-coded rows with the given
// per-feature cardinalities, returning the multi-granular partitions.
//
// Each granularity epoch re-launches competitive penalization learning from
// k_initial freshly drawn random seeds (Algorithm 1 line 3 sits inside the
// outer loop — only the *number* of clusters is inherited between epochs).
// Within an epoch, objects are repeatedly presented; the winner (Eq. 6)
// absorbs the object and is awarded (Eq. 12) while its nearest rival is
// penalized (Eq. 13), and per-cluster feature weights are refreshed
// (Eq. 15–18) after each pass. Clusters whose members all defect are
// eliminated, so the epoch converges at some k_new ≤ k_initial. The next
// epoch starts with k_initial = k_new and fresh parameters; the procedure
// stops when an epoch eliminates no further cluster (k_new = k_old).
func RunMGCPL(rows [][]int, cardinalities []int, cfg MGCPLConfig) (*MGCPLResult, error) {
	ix, err := newIndex(rows, cardinalities, cfg.Rand)
	if err != nil {
		return nil, err
	}
	return runMGCPL(ix, cfg, func() {}), nil
}

// newIndex checks an MGCPL run's inputs and indexes the rows once for all of
// its epochs: empty data first, then a missing random source, then the rows
// against the cardinalities.
func newIndex(rows [][]int, cardinalities []int, rng *rand.Rand) (*similarity.Index, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: empty data")
	}
	if rng == nil {
		return nil, ErrNoRand
	}
	ix, err := similarity.NewIndex(rows, cardinalities)
	if err != nil {
		return nil, fmt.Errorf("mgcpl: %w", err)
	}
	return ix, nil
}

// runMGCPL is RunMGCPL over an index built by newIndex, calling yield after
// every pass of the competitive loop, so that PooledEncoding's repeats can
// share the index and take turns on the workers. Every epoch counts fresh
// cluster slots over the same index.
func runMGCPL(ix *similarity.Index, cfg MGCPLConfig, yield func()) *MGCPLResult {
	n := ix.N()
	c := cfg.withDefaults(n)

	result := &MGCPLResult{}
	kInitial := c.InitialK
	for epoch := 0; epoch < maxEpochs; epoch++ {
		st := newMGCPLState(ix, kInitial, c.LearningRate, c.RivalThreshold, c.Rand, c.Workers)
		st.learnLevel(yield)
		level := granularity(st.assign)
		if level.K == kInitial && epoch > 0 {
			// No cluster could be eliminated this epoch: convergence.
			break
		}
		result.Levels = append(result.Levels, level)
		kInitial = level.K
		if level.K <= 1 {
			break
		}
	}
	if len(result.Levels) == 0 {
		// Degenerate safety net: one cluster containing everything.
		result.Levels = append(result.Levels, Granularity{K: 1, Labels: make([]int, n)})
	}
	return result
}

func newMGCPLState(ix *similarity.Index, k int, eta, rivalThreshold float64, rng *rand.Rand, workers int) *mgcplState {
	tables := ix.Tables(k)
	n := ix.N()
	st := &mgcplState{
		tables:         tables,
		assign:         make([]int, n),
		g:              make([]int, k),
		gCur:           make([]int, k),
		delta:          make([]float64, k),
		u:              make([]float64, k),
		omega:          make([][]float64, k),
		terms:          make([]float64, tables.TermRows()*k),
		acc:            make([]float64, k),
		score:          make([]float64, k),
		stale:          make([]int, 0, k),
		isStale:        make([]bool, k),
		slot:           make([]int, k),
		eta:            eta,
		rivalThreshold: rivalThreshold,
		order:          make([]int, n),
		rng:            rng,
		workers:        workers,
	}
	for i := range st.order {
		st.order[i] = i
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	d := ix.D()
	for l := 0; l < k; l++ {
		st.delta[l] = 1
		st.u[l] = sigmoidWeight(1)
		st.markStale(l)
		st.omega[l] = make([]float64, d)
		for r := range st.omega[l] {
			st.omega[l][r] = 1 / float64(d)
		}
	}
	// Seed each cluster with a distinct random object ("randomly select
	// k_initial objects to represent clusters", Algorithm 1 line 3).
	for l, i := range rng.Perm(n)[:k] {
		st.assign[i] = l
		st.tables.Add(i, l)
	}
	return st
}

// learnLevel runs the inner competitive-penalization loop until the
// partition stops changing (or maxInnerIters passes). The epoch also ends once
// half of its starting clusters have been eliminated: one epoch represents
// one granularity stage, and letting a single epoch cascade further would
// skip the intermediate granularities the next (re-seeded) epochs explore.
// yield is called once after every pass.
func (st *mgcplState) learnLevel(yield func()) {
	n := len(st.order)
	minAlive := (st.tables.K() + 1) / 2
	for iter := 0; iter < maxInnerIters; iter++ {
		changed := false
		var gTotal float64
		for _, gl := range st.g {
			gTotal += float64(gl)
		}
		for l := range st.gCur {
			st.gCur[l] = 0
		}
		// Objects are presented in a fresh random order every pass: with a
		// fixed order, long runs of similar objects deliver consecutive
		// rival penalties that can eliminate a healthy balanced cluster.
		// Rival penalization is disabled during the very first pass (iter
		// 0): clusters are still single seeds there, and penalizing them
		// ~n/k times each before they can accrete members collapses the
		// whole configuration into one cluster on large data sets.
		st.rng.Shuffle(n, func(a, b int) { st.order[a], st.order[b] = st.order[b], st.order[a] })
		gCurTotal := 0.0
		for _, i := range st.order {
			v, h, simV, simH := st.pickWinnerAndRival(i, gTotal+gCurTotal)
			if v < 0 {
				continue // no cluster can score this object
			}
			if own := st.assign[i]; own != v {
				if own >= 0 {
					st.tables.Remove(i, own)
					st.markStale(own)
				}
				st.tables.Add(i, v)
				st.markStale(v)
				st.assign[i] = v
				changed = true
			}
			// Award the winner, penalize the rival (Eq. 10, 12, 13). The
			// award is capped at the initialization value δ=1: u_l lives in
			// [0,1] (Eq. 11), so winning restores a cluster to full weight
			// rather than banking unbounded credit — otherwise win credit
			// would always swamp the rival penalties and no cluster could
			// ever be eliminated. A winner already at the cap keeps δ_v,
			// and with it u_v = sigmoidWeight(1), as they are.
			st.gCur[v]++
			gCurTotal++
			if st.delta[v] < 1 {
				if st.delta[v] += st.eta; st.delta[v] > 1 {
					st.delta[v] = 1
				}
				st.u[v] = sigmoidWeight(st.delta[v])
			}
			if h >= 0 && iter > 0 {
				// The penalty strength is the rival's similarity *relative
				// to the winner's*: it approaches the full award η exactly
				// when the rival is redundant with the winner (s_h ≈ s_v),
				// the configuration multi-granular learning must dissolve.
				// Rivals below the redundancy threshold represent genuinely
				// distinct clusters and are left alone, which makes the
				// cluster elimination self-limiting: once the surviving
				// clusters are mutually distinct at the current granularity,
				// the epoch converges instead of collapsing to k = 1.
				ratio := 1.0
				if simV > 0 {
					ratio = simH / simV
					if ratio > 1 {
						ratio = 1
					}
				}
				if ratio >= st.rivalThreshold {
					st.delta[h] -= st.eta * ratio
					if st.delta[h] < -1 {
						st.delta[h] = -1
					}
					st.u[h] = sigmoidWeight(st.delta[h])
				}
			}
		}
		copy(st.g, st.gCur)
		st.refreshWeights()
		yield()
		// Clusters emptied this pass are out of the competition. Each
		// elimination clears the guidance statistics of the survivors
		// (g←0, δ←1, ω←1/d): the fight that killed the loser also battered
		// bystanders, and without the reset a single redundancy can cascade
		// a healthy configuration all the way down to one cluster.
		if st.eliminate() {
			if st.tables.K() <= minAlive {
				return
			}
			st.resetGuidance()
			continue
		}
		if !changed {
			return
		}
	}
}

// eliminate drops the clusters that are empty at the end of a pass and
// renumbers the survivors 0..k'−1 in index order, and reports whether any
// cluster went. The tables, the assignment, the guidance statistics, ω and
// the term matrix all compact with the slots, so the scan still meets the
// clusters in their old order; every column moves, so all are stale.
func (st *mgcplState) eliminate() bool {
	k, slot := st.tables.K(), st.slot
	st.tables.DropEmpty(slot)
	kept := st.tables.K()
	if kept == k {
		return false
	}
	for i, l := range st.assign {
		if l >= 0 {
			st.assign[i] = slot[l]
		}
	}
	for l, to := range slot[:k] {
		if to >= 0 {
			st.g[to], st.gCur[to] = st.g[l], st.gCur[l]
			st.delta[to], st.u[to], st.omega[to] = st.delta[l], st.u[l], st.omega[l]
		}
	}
	st.g, st.gCur, st.delta, st.u, st.omega = st.g[:kept], st.gCur[:kept], st.delta[:kept], st.u[:kept], st.omega[:kept]
	st.terms, st.acc, st.score = st.terms[:st.tables.TermRows()*kept], st.acc[:kept], st.score[:kept]
	st.stale, st.isStale = st.stale[:0], st.isStale[:kept]
	clear(st.isStale)
	for l := range kept {
		st.markStale(l)
	}
	return true
}

// markStale lists cluster l's term column for rewriting, once.
func (st *mgcplState) markStale(l int) {
	if !st.isStale[l] {
		st.isStale[l] = true
		st.stale = append(st.stale, l)
	}
}

// refreshWeights recomputes the per-cluster feature weights (Eq. 15–18).
// Each cluster's weights depend only on the (frozen) frequency tables and are
// written to that cluster's own ω slice, so the clusters fan out across the
// configured workers with bit-for-bit identical results at any parallelism.
func (st *mgcplState) refreshWeights() {
	workers := parallel.Gate(st.workers, len(st.omega)*st.tables.D())
	parallel.Must(parallel.ForEach(workers, len(st.omega), func(l int) error {
		if st.tables.Size(l) > 0 {
			st.tables.FeatureWeights(l, st.omega[l])
		}
		return nil
	}))
	for l := range st.omega {
		if st.tables.Size(l) > 0 {
			st.markStale(l)
		}
	}
}

// resetGuidance clears the learning statistics of the surviving clusters
// (Algorithm 1 line 13) while keeping the current partition. Unlike a full
// re-launch, the feature weights are not reset to uniform: they keep the
// values refreshWeights computed from the inherited partition at the end of
// the pass, because the surviving clusters are already formed, and
// evaluating the next rivalries under uniform weights would discard the very
// feature relevances that distinguish them.
func (st *mgcplState) resetGuidance() {
	for l := range st.delta {
		st.g[l] = 0
		st.gCur[l] = 0
		st.delta[l] = 1
		st.u[l] = sigmoidWeight(1)
	}
}

// pickWinnerAndRival evaluates Eq. (6) and Eq. (9): the winner v maximizes
// (1−ρ_l)·u_l·s(x_i,C_l) over the non-empty clusters, and the rival h is the
// runner-up; both are scanned in index order and ties go to the lower index.
// The winning ratio ρ counts the previous pass's wins plus the wins already
// accumulated in the current pass: purely retrospective counts leave the very
// first pass undamped, and one early winner can then absorb the entire data
// set before any other cluster forms.
//
// It also returns the similarities simV and simH of the winner and the rival.
// Every cluster other than object i's own is scored through its column of
// the term matrix, all of them summed in one pass over i's rows of it; the
// own cluster's leave-one-out sum replaces its column's, which may be stale,
// so every similarity is acc[l]/d. After i moves out of h, h's plain
// similarity equals this leave-one-out value, so the caller needs no second
// evaluation.
//
// The scores are formed in one branch-free pass over every slot, empty ones
// included, and the top two are selected in a second. A slot that does not
// beat the runner-up cannot change either, so the selection tests that
// first, which also skips a NaN score, and only then whether the slot is
// empty.
func (st *mgcplState) pickWinnerAndRival(i int, gTotal float64) (v, h int, simV, simH float64) {
	own := st.assign[i]
	stale := st.stale[:0]
	for _, l := range st.stale {
		if l == own || st.tables.Size(l) == 0 {
			stale = append(stale, l)
			continue
		}
		st.tables.WriteTermColumn(st.terms, len(st.acc), l, l, st.omega[l])
		st.isStale[l] = false
	}
	st.stale = stale
	st.tables.SumTermColumns(i, st.terms, st.acc)
	if own >= 0 {
		st.acc[own] = st.tables.WeightedSumLOO(i, own, st.omega[own], true)
	}
	d := float64(st.tables.D())
	acc, u, score := st.acc, st.u[:len(st.acc)], st.score[:len(st.acc)]
	if gTotal > 0 {
		g, gCur := st.g[:len(acc)], st.gCur[:len(acc)]
		for l, sum := range acc {
			rho := float64(g[l]+gCur[l]) / gTotal
			score[l] = (1 - rho) * u[l] * (sum / d)
		}
	} else {
		// ρ = 0, and (1−0)·u_l is u_l exactly.
		for l, sum := range acc {
			score[l] = u[l] * (sum / d)
		}
	}
	v, h = -1, -1
	best, second := math.Inf(-1), math.Inf(-1)
	for l, s := range score {
		if !(s > second) || st.tables.Size(l) == 0 {
			continue
		}
		if s > best {
			second, h = best, v
			best, v = s, l
		} else {
			second, h = s, l
		}
	}
	if v >= 0 {
		simV = acc[v] / d
	}
	if h >= 0 {
		simH = acc[h] / d
	}
	return v, h, simV, simH
}

// granularity relabels an assignment's non-empty clusters densely and
// returns it as one partition. Unassigned objects, possible only in
// pathological cases where every similarity was zero, join cluster 0, so a
// partition has at least one cluster.
func granularity(assign []int) Granularity {
	labels, k := categorical.DenseLabels(assign)
	return Granularity{K: max(k, 1), Labels: labels}
}
