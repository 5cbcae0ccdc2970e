package mcdc

import "math/rand"

// FinalClusterer is a pluggable algorithm applied to the Γ encoding in place
// of CAME: it receives the n×σ encoding, the per-column cardinalities, the
// sought k and a seeded random source, and returns dense cluster labels.
// The paper's MCDC+G. and MCDC+F. variants are instances of this hook (see
// EnhanceGUDMM and EnhanceFKMAWCW).
type FinalClusterer func(encoding [][]int, cardinalities []int, k int, rng *rand.Rand) ([]int, error)

type options struct {
	seed           int64
	learningRate   float64
	initialK       int
	ensemble       int
	workers        int
	finalClusterer FinalClusterer
}

// Option customizes Cluster and Explore.
type Option func(*options)

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithSeed fixes the random seed; runs are fully deterministic given a seed.
// The default seed is 1.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithLearningRate sets MGCPL's learning rate η (paper default 0.03).
func WithLearningRate(eta float64) Option {
	return func(o *options) { o.learningRate = eta }
}

// WithInitialK sets MGCPL's starting number of clusters k₀ (paper default
// ⌈√n⌉). It must exceed the expected natural number of clusters.
func WithInitialK(k0 int) Option {
	return func(o *options) { o.initialK = k0 }
}

// WithEnsemble sets how many independent MGCPL analyses are pooled into the
// Γ encoding before aggregation (default 3). 1 reproduces the bare
// Algorithm 1 + Algorithm 2 pipeline; a small ensemble realizes the paper's
// observation that the multi-granular information of separate analyses
// complements each other, and is what gives MCDC its reported run-to-run
// stability.
func WithEnsemble(repeats int) Option {
	return func(o *options) { o.ensemble = repeats }
}

// WithParallelism bounds how many goroutines compute at once in the
// pipeline's CPU-bound fan-outs: the ensemble MGCPL repeats, the per-cluster
// feature-weight refreshes, CAME's assignment/mode/θ sweeps, and the
// farthest-first seeding scans. n ≤ 0 (the default) resolves to
// runtime.GOMAXPROCS(0); n = 1 runs fully sequentially, on the caller's
// goroutine. When n is above 1 but below the number of ensemble repeats,
// every repeat starts at once and they take turns, n computing at a time and
// one MGCPL pass per turn, so no worker idles while the last repeats run.
//
// Determinism contract: parallelism never changes results. For a fixed seed,
// every parallelism level produces bit-for-bit identical labels, κ series,
// and Θ weights — work is partitioned into chunks whose boundaries depend
// only on the problem size, per-chunk partial results are merged in chunk
// order, and all randomness is drawn on a single goroutine (ensemble repeats
// get their sub-seeds derived up front, in repeat order, from the master
// seed). WithParallelism(1) is therefore a debugging aid and a benchmark
// baseline, not a way to get different output.
func WithParallelism(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithFinalClusterer substitutes the given algorithm for CAME on the
// multi-granular encoding (the paper's "MCDC enhances existing methods"
// usage).
func WithFinalClusterer(fc FinalClusterer) Option {
	return func(o *options) { o.finalClusterer = fc }
}

// newRand builds a seeded random source (helper shared across the package).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
