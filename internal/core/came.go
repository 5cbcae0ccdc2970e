package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"mcdc/internal/parallel"
	"mcdc/internal/seeding"
)

// cameMaxIters caps CAME's alternating Q/Θ optimization. The loop normally
// converges in a handful of iterations (see Theorem 2).
const cameMaxIters = 100

// CAMEConfig parameterizes Algorithm 2.
type CAMEConfig struct {
	// K is the sought number of clusters (the paper sets it to k*).
	K int
	// FixedWeights disables the feature-importance learning of Eq. (21)–(22)
	// and keeps θ_r = 1/σ. This is the MCDC₄ ablation of Fig. 4.
	FixedWeights bool
	// Workers bounds the parallelism of the assignment sweep, the mode
	// counting, and the θ update (≤ 0 → GOMAXPROCS, 1 → sequential). All
	// three are chunked deterministically over objects, so the labels are
	// bit-for-bit identical at any setting.
	Workers int
	// Rand drives the initial mode selection. Required.
	Rand *rand.Rand
}

// CAMEResult carries the output of Algorithm 2: the final partition Q (as
// dense labels), the learned granularity-feature importances Θ, and the
// converged cluster modes. The modes are part of the learned model — a
// serving layer assigns fresh objects by θ-weighted Hamming distance to them
// — so they are exported here rather than staying trapped in the internal
// optimization state.
type CAMEResult struct {
	Labels []int
	Theta  []float64
	// Modes[l] is cluster l's converged per-column mode over the Γ encoding
	// (k rows of σ columns).
	Modes [][]int
	Iters int
}

// RunCAME clusters the Γ encoding produced by MGCPL (an n×σ matrix of
// granularity labels) into cfg.K clusters by feature-weighted k-modes with
// Hamming distance, alternating the partition update of Eq. (20) with the
// weight update of Eq. (21)–(22) until the partition stabilizes.
func RunCAME(encoding [][]int, cfg CAMEConfig) (*CAMEResult, error) {
	n := len(encoding)
	if n == 0 {
		return nil, errors.New("core: empty encoding")
	}
	if cfg.Rand == nil {
		return nil, ErrNoRand
	}
	sigma := len(encoding[0])
	if sigma == 0 {
		return nil, errors.New("core: encoding has zero granularity levels")
	}
	k := cfg.K
	if k <= 0 {
		return nil, fmt.Errorf("core: CAME requires a positive sought k, got %d", k)
	}
	if k > n {
		k = n
	}

	// Per-column cardinalities of the encoding.
	card := make([]int, sigma)
	for _, row := range encoding {
		for r, v := range row {
			if v+1 > card[r] {
				card[r] = v + 1
			}
		}
	}

	st := &cameState{
		enc:     encoding,
		card:    card,
		k:       k,
		theta:   make([]float64, sigma),
		modes:   make([][]int, k),
		rng:     cfg.Rand,
		workers: cfg.Workers,
	}
	for r := range st.theta {
		st.theta[r] = 1 / float64(sigma)
	}
	// Initial modes by farthest-first traversal: spread-out seeds make the
	// aggregation stable across runs (the robustness the paper reports for
	// MCDC stems from here and from the redundancy of Γ's columns).
	for l, i := range seeding.FarthestFirstWorkers(encoding, k, st.rng, st.workers) {
		st.modes[l] = append([]int(nil), encoding[i]...)
	}

	labels := make([]int, n)
	st.assignAll(labels)
	iters := 0
	for ; iters < cameMaxIters; iters++ {
		st.updateModes(labels)
		if !cfg.FixedWeights {
			st.updateTheta(labels)
		}
		next := make([]int, n)
		st.assignAll(next)
		if slices.Equal(labels, next) {
			labels = next
			break
		}
		labels = next
	}
	modes := make([][]int, len(st.modes))
	for l := range st.modes {
		modes[l] = append([]int(nil), st.modes[l]...)
	}
	return &CAMEResult{Labels: labels, Theta: st.theta, Modes: modes, Iters: iters + 1}, nil
}

type cameState struct {
	enc     [][]int
	card    []int
	k       int
	theta   []float64
	modes   [][]int
	rng     *rand.Rand
	workers int
}

// dist is the θ-weighted Hamming distance between an object of Γ and a
// cluster mode (the summand of Eq. 19–20).
func (st *cameState) dist(row, mode []int) float64 {
	var d float64
	for r := range row {
		if row[r] != mode[r] {
			d += st.theta[r]
		}
	}
	return d
}

// assignAll writes each object's nearest-mode cluster into labels (Eq. 20).
// Objects are independent given the frozen modes and θ, and each chunk writes
// only its own label slots, so the sweep fans out across the configured
// workers with identical results at any parallelism.
func (st *cameState) assignAll(labels []int) {
	workers := parallel.Gate(st.workers, len(st.enc)*len(st.card)*st.k)
	parallel.Must(parallel.ForEachChunk(workers, len(st.enc), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := st.enc[i]
			best, bestD := 0, st.dist(row, st.modes[0])
			for l := 1; l < st.k; l++ {
				if d := st.dist(row, st.modes[l]); d < bestD {
					best, bestD = l, d
				}
			}
			labels[i] = best
		}
		return nil
	}))
}

// modeCounts is the per-worker accumulator of updateModes: cluster sizes and
// per-cluster, per-column value frequencies over one slab of objects.
type modeCounts struct {
	counts [][][]int // counts[l][r][v]
	sizes  []int
}

// updateModes recomputes each cluster's per-column majority label. The
// counting pass partitions the objects into one contiguous slab per worker,
// each tallying into its own count table; the per-cluster count table is the
// expensive allocation here, so slabs are per-worker rather than the fixed
// fine chunks MapReduce uses — integer sums are exact under any grouping, so
// the merged counts (and hence the modes) are still identical at every
// parallelism level, and a single worker allocates exactly one table like
// the pre-parallel loop did. Empty clusters are re-seeded with a random
// object, the standard k-modes repair; that loop consumes the shared rng and
// stays sequential in cluster order.
func (st *cameState) updateModes(labels []int) {
	sigma := len(st.card)
	n := len(labels)
	newCounts := func() *modeCounts {
		mc := &modeCounts{counts: make([][][]int, st.k), sizes: make([]int, st.k)}
		for l := range mc.counts {
			mc.counts[l] = make([][]int, sigma)
			for r := range mc.counts[l] {
				mc.counts[l][r] = make([]int, st.card[r])
			}
		}
		return mc
	}
	slabs := parallel.Resolve(parallel.Gate(st.workers, n*sigma))
	if slabs > n {
		slabs = n
	}
	// Each slab pays for a full count table up front; keep the total
	// accumulator cells below the tally work itself, or a many-core machine
	// with a large k×σ×card table would spend more on allocating and zeroing
	// tables than on counting.
	cells := 0
	for _, m := range st.card {
		cells += m * st.k
	}
	if maxSlabs := n * sigma / (cells + 1); slabs > maxSlabs {
		slabs = maxSlabs
		if slabs < 1 {
			slabs = 1
		}
	}
	parts := make([]*modeCounts, slabs)
	parallel.Must(parallel.ForEach(slabs, slabs, func(w int) error {
		lo, hi := w*n/slabs, (w+1)*n/slabs
		mc := newCounts()
		for i := lo; i < hi; i++ {
			l := labels[i]
			mc.sizes[l]++
			for r, v := range st.enc[i] {
				mc.counts[l][r][v]++
			}
		}
		parts[w] = mc
		return nil
	}))
	merged := parts[0]
	for _, next := range parts[1:] {
		for l := range merged.counts {
			merged.sizes[l] += next.sizes[l]
			for r := range merged.counts[l] {
				for v := range merged.counts[l][r] {
					merged.counts[l][r][v] += next.counts[l][r][v]
				}
			}
		}
	}
	counts, sizes := merged.counts, merged.sizes
	for l := 0; l < st.k; l++ {
		if sizes[l] == 0 {
			st.modes[l] = append([]int(nil), st.enc[st.rng.Intn(len(st.enc))]...)
			continue
		}
		for r := 0; r < sigma; r++ {
			best, bestC := 0, -1
			for v, c := range counts[l][r] {
				if c > bestC {
					best, bestC = v, c
				}
			}
			st.modes[l][r] = best
		}
	}
}

// updateTheta refreshes the granularity-feature importances (Eq. 21–22):
// I_r is the total within-cluster matching mass contributed by column r, and
// θ_r is its share of the total. The matching mass is an integer tally, so
// the chunked parallel accumulation is exact and workers-independent.
func (st *cameState) updateTheta(labels []int) {
	sigma := len(st.card)
	intra, mrErr := parallel.MapReduce(parallel.Gate(st.workers, len(labels)*sigma), len(labels), []int(nil),
		func(lo, hi int) ([]int, error) {
			part := make([]int, sigma)
			for i := lo; i < hi; i++ {
				mode := st.modes[labels[i]]
				for r, v := range st.enc[i] {
					if v == mode[r] {
						part[r]++
					}
				}
			}
			return part, nil
		},
		func(acc, next []int) []int {
			if acc == nil {
				return next
			}
			for r := range acc {
				acc[r] += next[r]
			}
			return acc
		})
	parallel.Must(mrErr)
	if intra == nil {
		intra = make([]int, sigma)
	}
	total := 0
	for _, x := range intra {
		total += x
	}
	if total <= 0 {
		for r := range st.theta {
			st.theta[r] = 1 / float64(sigma)
		}
		return
	}
	for r := range st.theta {
		st.theta[r] = float64(intra[r]) / float64(total)
	}
}
