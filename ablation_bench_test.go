package mcdc_test

// Design-choice ablation benchmarks for the choices this implementation makes
// around the paper's Algorithm 1. These are not paper figures; they quantify
// the cost of the specific engineering decisions of this implementation so
// that future changes can be evaluated against a baseline:
//
//   - BenchmarkAblation_RivalThreshold — the redundancy gate of the rival
//     penalty (lower = more aggressive elimination = fewer, coarser levels).
//   - BenchmarkAblation_Ensemble — the pooled-encoding ensemble that gives
//     MCDC its run-to-run stability, at proportional cost.
//   - BenchmarkAblation_InitialK — the k₀ = √n default versus smaller and
//     larger launches.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcdc/internal/core"
	"mcdc/internal/datasets"
)

func ablationData(b *testing.B) ([][]int, []int) {
	b.Helper()
	ds := datasets.Synthetic("bench", 1500, 10, 4, 0.85, rand.New(rand.NewSource(1)))
	return ds.Rows, ds.Cardinalities()
}

func BenchmarkAblation_RivalThreshold(b *testing.B) {
	rows, card := ablationData(b)
	for _, tau := range []float64{0.75, 0.85, 0.95} {
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.RunMGCPL(rows, card, core.MGCPLConfig{
					RivalThreshold: tau,
					Rand:           rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_Ensemble(b *testing.B) {
	rows, card := ablationData(b)
	for _, repeats := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("repeats=%d", repeats), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.RunMCDC(rows, card, core.MCDCConfig{
					MGCPL:   core.MGCPLConfig{Rand: rand.New(rand.NewSource(int64(i)))},
					CAME:    core.CAMEConfig{K: 4},
					Repeats: repeats,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_InitialK(b *testing.B) {
	rows, card := ablationData(b)
	for _, k0 := range []int{10, 39 /* ≈√1500 */, 120} {
		b.Run(fmt.Sprintf("k0=%d", k0), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.RunMGCPL(rows, card, core.MGCPLConfig{
					InitialK: k0,
					Rand:     rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
