package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/parallel"
	"mcdc/internal/similarity"
)

// Defaults for the MGCPL hyper-parameters, matching §IV-A of the paper
// (η = 0.03, k₀ = √n).
const (
	DefaultLearningRate = 0.03
	defaultMaxInner     = 100
	defaultMaxEpochs    = 60

	// defaultRivalThreshold is the redundancy gate of the rival penalty: a
	// runner-up whose (weighted, leave-one-out) similarity reaches this
	// fraction of the winner's is considered to overlap the winner's basin
	// and is penalized toward elimination.
	defaultRivalThreshold = 0.85
)

// ErrNoRand is returned when a learner is run without a random source.
var ErrNoRand = errors.New("core: nil random source (provide *rand.Rand)")

// MGCPLConfig parameterizes Algorithm 1.
type MGCPLConfig struct {
	// LearningRate is η of Eq. (12)–(13). Defaults to DefaultLearningRate.
	LearningRate float64
	// InitialK is k₀. Defaults to ⌈√n⌉ (the paper's setting).
	InitialK int
	// MaxInnerIters caps the passes of the inner competitive-penalization
	// loop per granularity level (safety bound; the loop normally converges
	// when the partition stabilizes).
	MaxInnerIters int
	// MaxEpochs caps the number of granularity levels explored.
	MaxEpochs int
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
	if out.InitialK > n {
		out.InitialK = n
	}
	if out.InitialK < 2 {
		out.InitialK = 2
	}
	if out.MaxInnerIters <= 0 {
		out.MaxInnerIters = defaultMaxInner
	}
	if out.MaxEpochs <= 0 {
		out.MaxEpochs = defaultMaxEpochs
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

// mgcplState is the mutable learning state for one granularity level.
type mgcplState struct {
	tables *similarity.Tables
	assign []int       // assign[i]: current cluster of object i, -1 if none
	g      []int       // winning counts of the previous pass (Eq. 7)
	gCur   []int       // winning counts being accumulated this pass
	delta  []float64   // δ_l driving the sigmoid weight u_l (Eq. 11)
	u      []float64   // u[l] = sigmoidWeight(δ_l), rewritten wherever δ_l is
	omega  [][]float64 // ω_rl feature weights per cluster (Eq. 18)
	alive  []bool      // cluster slots still in play
	eta    float64
	order  []int // presentation order, reshuffled every pass
	rng    *rand.Rand
	// rivalThreshold gates the rival penalty: only rivals whose similarity
	// ratio to the winner exceeds it are treated as redundant and penalized.
	rivalThreshold float64
	// workers bounds the parallelism of the per-cluster weight refresh.
	workers int
	// terms[l] caches WeightedTerms(l, ω_l): cluster l's score for any
	// non-member object is then a SumTerms lookup. dirty[l] marks a table
	// made stale by a change to l's members or to ω_l; pickWinnerAndRival
	// rebuilds it on first use.
	terms [][]float64
	dirty []bool
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
	n := len(rows)
	if n == 0 {
		return nil, errors.New("core: empty data")
	}
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	c := cfg.withDefaults(n)

	result := &MGCPLResult{}
	kInitial := c.InitialK
	for epoch := 0; epoch < c.MaxEpochs; epoch++ {
		st, err := newMGCPLState(rows, cardinalities, kInitial, c.LearningRate, c.RivalThreshold, c.Rand, c.Workers)
		if err != nil {
			return nil, err
		}
		if err := st.learnLevel(rows, c.MaxInnerIters); err != nil {
			return nil, err
		}
		level := st.compact()
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
	return result, nil
}

func newMGCPLState(rows [][]int, card []int, k int, eta, rivalThreshold float64, rng *rand.Rand, workers int) (*mgcplState, error) {
	tables, err := similarity.NewTables(rows, card, k)
	if err != nil {
		return nil, fmt.Errorf("mgcpl: %w", err)
	}
	n := len(rows)
	st := &mgcplState{
		tables:         tables,
		assign:         make([]int, n),
		g:              make([]int, k),
		gCur:           make([]int, k),
		delta:          make([]float64, k),
		u:              make([]float64, k),
		omega:          make([][]float64, k),
		alive:          make([]bool, k),
		terms:          make([][]float64, k),
		dirty:          make([]bool, k),
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
	d := len(card)
	for l := 0; l < k; l++ {
		st.delta[l] = 1
		st.u[l] = sigmoidWeight(1)
		st.alive[l] = true
		st.dirty[l] = true
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
	return st, nil
}

// learnLevel runs the inner competitive-penalization loop until the
// partition stops changing (or maxIters passes). The epoch also ends once
// half of its starting clusters have been eliminated: one epoch represents
// one granularity stage, and letting a single epoch cascade further would
// skip the intermediate granularities the next (re-seeded) epochs explore.
func (st *mgcplState) learnLevel(rows [][]int, maxIters int) error {
	n := len(rows)
	kStart := 0
	for _, a := range st.alive {
		if a {
			kStart++
		}
	}
	minAlive := (kStart + 1) / 2
	for iter := 0; iter < maxIters; iter++ {
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
				continue // no live cluster can score this object
			}
			if own := st.assign[i]; own != v {
				if own >= 0 {
					st.tables.Remove(i, own)
					st.dirty[own] = true
				}
				st.tables.Add(i, v)
				st.dirty[v] = true
				st.assign[i] = v
				changed = true
			}
			// Award the winner, penalize the rival (Eq. 10, 12, 13). The
			// award is capped at the initialization value δ=1: u_l lives in
			// [0,1] (Eq. 11), so winning restores a cluster to full weight
			// rather than banking unbounded credit — otherwise win credit
			// would always swamp the rival penalties and no cluster could
			// ever be eliminated.
			st.gCur[v]++
			gCurTotal++
			if st.delta[v] += st.eta; st.delta[v] > 1 {
				st.delta[v] = 1
			}
			st.u[v] = sigmoidWeight(st.delta[v])
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
		// Clusters emptied this pass are out of the competition. Each
		// elimination clears the guidance statistics of the survivors
		// (g←0, δ←1, ω←1/d): the fight that killed the loser also battered
		// bystanders, and without the reset a single redundancy can cascade
		// a healthy configuration all the way down to one cluster.
		eliminated := false
		for l := range st.alive {
			if st.alive[l] && st.tables.Size(l) == 0 {
				st.alive[l] = false
				eliminated = true
			}
		}
		if eliminated {
			alive := 0
			for _, a := range st.alive {
				if a {
					alive++
				}
			}
			if alive <= minAlive {
				return nil
			}
			st.resetGuidance()
			continue
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// refreshWeights recomputes the per-cluster feature weights (Eq. 15–18).
// Each cluster's weights depend only on the (frozen) frequency tables and are
// written to that cluster's own ω slice, so the clusters fan out across the
// configured workers with bit-for-bit identical results at any parallelism.
func (st *mgcplState) refreshWeights() {
	workers := parallel.Gate(st.workers, len(st.omega)*st.tables.D())
	parallel.Must(parallel.ForEach(workers, len(st.omega), func(l int) error {
		if !st.alive[l] || st.tables.Size(l) == 0 {
			return nil
		}
		st.tables.FeatureWeights(l, st.omega[l])
		st.dirty[l] = true
		return nil
	}))
}

// resetGuidance clears the learning statistics of the surviving clusters
// (Algorithm 1 line 13) while keeping the current partition. Unlike a full
// re-launch, the feature weights are recomputed from the inherited partition
// rather than reset to uniform: the surviving clusters are already formed,
// and evaluating the next rivalries under uniform weights would discard the
// very feature relevances that distinguish them.
func (st *mgcplState) resetGuidance() {
	for l := range st.delta {
		st.g[l] = 0
		st.gCur[l] = 0
		st.delta[l] = 1
		st.u[l] = sigmoidWeight(1)
		if st.alive[l] && st.tables.Size(l) > 0 {
			st.tables.FeatureWeights(l, st.omega[l])
			st.dirty[l] = true
		}
	}
}

// pickWinnerAndRival evaluates Eq. (6) and Eq. (9): the winner v maximizes
// (1−ρ_l)·u_l·s(x_i,C_l) over live clusters, and the rival h is the runner-up.
// The winning ratio ρ counts the previous pass's wins plus the wins already
// accumulated in the current pass: purely retrospective counts leave the very
// first pass undamped, and one early winner can then absorb the entire data
// set before any other cluster forms.
//
// It also returns the similarities simV and simH of the winner and the rival.
// Object i's own cluster is scored leave-one-out; every other cluster through
// its cached term table. After i moves out of h, h's plain similarity equals
// this leave-one-out value, so the caller needs no second evaluation.
func (st *mgcplState) pickWinnerAndRival(i int, gTotal float64) (v, h int, simV, simH float64) {
	v, h = -1, -1
	best, second := math.Inf(-1), math.Inf(-1)
	own := st.assign[i]
	for l := range st.alive {
		if !st.alive[l] || st.tables.Size(l) == 0 {
			continue
		}
		rho := 0.0
		if gTotal > 0 {
			rho = float64(st.g[l]+st.gCur[l]) / gTotal
		}
		var sim float64
		if l == own {
			sim = st.tables.WeightedSimLOO(i, l, st.omega[l], true)
		} else {
			if st.dirty[l] {
				st.terms[l] = st.tables.WeightedTerms(l, st.omega[l], st.terms[l])
				st.dirty[l] = false
			}
			sim = st.tables.SumTerms(i, st.terms[l])
		}
		score := (1 - rho) * st.u[l] * sim
		switch {
		case score > best:
			second, h, simH = best, v, simV
			best, v, simV = score, l, sim
		case score > second:
			second, h, simH = score, l, sim
		}
	}
	return v, h, simV, simH
}

// compact relabels the live, non-empty clusters densely and returns the
// current partition.
func (st *mgcplState) compact() Granularity {
	remap := make(map[int]int)
	labels := make([]int, len(st.assign))
	for i, l := range st.assign {
		if l < 0 {
			// Unassigned objects (possible only in pathological cases where
			// every similarity was zero) join cluster 0.
			labels[i] = 0
			continue
		}
		nl, ok := remap[l]
		if !ok {
			nl = len(remap)
			remap[l] = nl
		}
		labels[i] = nl
	}
	k := len(remap)
	if k == 0 {
		k = 1
	}
	return Granularity{K: k, Labels: labels}
}
