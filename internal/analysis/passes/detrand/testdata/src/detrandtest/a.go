// Package detrandtest exercises the detrand analyzer: global-state draws,
// time-based seeds, and rng draws inside internal/parallel closures.
package detrandtest

import (
	"math/rand"
	"time"

	"mcdc/internal/parallel"
)

func globalDraws() {
	_ = rand.Intn(10)                  // want `rand\.Intn draws from the process-global rand state`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle draws from the process-global rand state`
	_ = rand.Float64()                 // want `rand\.Float64 draws from the process-global rand state`
}

func timeSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `rand\.New seeded from time\.Now` `rand\.NewSource seeded from time\.Now`
}

func seededIsFine(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: explicit seed
}

func drawInParallelClosure(rng *rand.Rand, out []float64) {
	_ = parallel.ForEach(0, len(out), func(i int) error {
		out[i] = rng.Float64() // want `\*rand\.Rand draw inside a closure passed to internal/parallel\.ForEach`
		return nil
	})
	_ = parallel.ForEachChunk(0, len(out), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = rng.NormFloat64() // want `closure passed to internal/parallel\.ForEachChunk`
		}
		return nil
	})
	_ = parallel.ForEachTurns(0, len(out), func(i int, yield func()) error {
		yield()
		out[i] = rng.Float64() // want `closure passed to internal/parallel\.ForEachTurns`
		return nil
	})
}

func drawOutsideClosureIsFine(rng *rand.Rand, out []float64) {
	// The contract's blessed shape: draw on one goroutine, hand values in.
	noise := make([]float64, len(out))
	for i := range noise {
		noise[i] = rng.Float64()
	}
	_ = parallel.ForEach(0, len(out), func(i int) error {
		out[i] = noise[i] * 2
		return nil
	})
}

func annotatedException(rng *rand.Rand, out []float64) {
	_ = parallel.ForEach(0, len(out), func(i int) error {
		//lint:mcdcvet-ignore detrand test fixture proving the suppression grammar works
		out[i] = rng.Float64()
		return nil
	})
}
