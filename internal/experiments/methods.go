// Package experiments regenerates every table and figure of the paper's
// evaluation section: the clustering-performance comparison (Table III), the
// Wilcoxon significance test (Table IV), the ablation study (Fig. 4), the
// multi-granular learning trajectories (Fig. 5) and the scalability curves
// (Fig. 6).
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mcdc/internal/adc"
	"mcdc/internal/categorical"
	"mcdc/internal/core"
	"mcdc/internal/fkmawcw"
	"mcdc/internal/gudmm"
	"mcdc/internal/kmodes"
	"mcdc/internal/rock"
	"mcdc/internal/wocil"
)

// Method is a uniform wrapper around one clustering algorithm: it partitions
// the data set into (approximately) k clusters using the given seed.
type Method struct {
	Name string
	Run  func(ds *categorical.Dataset, k int, seed int64) ([]int, error)
	// Deterministic marks methods whose output does not depend on the seed
	// (ROCK without sampling, WOCIL); the harness runs them once.
	Deterministic bool
}

// mcdcPipeline runs the pooled MGCPL analysis and hands the encoding to
// final; final == nil means CAME (plain MCDC).
func mcdcPipeline(ds *categorical.Dataset, k int, seed int64,
	final func(enc [][]int, card []int, k int, rng *rand.Rand) ([]int, error)) ([]int, error) {
	rng := rand.New(rand.NewSource(seed))
	if final == nil {
		res, err := core.RunMCDC(ds.Rows, ds.Cardinalities(), core.MCDCConfig{
			MGCPL: core.MGCPLConfig{Rand: rng},
			CAME:  core.CAMEConfig{K: k},
		})
		if err != nil {
			return nil, err
		}
		return res.Labels, nil
	}
	// Enhancer variants consume the single-run encoding of Algorithm 1, as
	// in the paper; the pooled ensemble helps CAME but widens the feature
	// space beyond what the fuzzy baseline's weight dynamics tolerate.
	enc, _, err := core.PooledEncoding(ds.Rows, ds.Cardinalities(), core.MGCPLConfig{Rand: rng}, 1)
	if err != nil {
		return nil, err
	}
	card := make([]int, len(enc[0]))
	for _, row := range enc {
		for r, v := range row {
			if v+1 > card[r] {
				card[r] = v + 1
			}
		}
	}
	return final(enc, card, k, rng)
}

// Methods returns the nine compared approaches of Table III, in the paper's
// column order.
func Methods() []Method {
	return []Method{
		{Name: "K-MODES", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := kmodes.Run(ds.Rows, ds.Cardinalities(), kmodes.Config{K: k, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "ROCK", Deterministic: false, Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := rock.Run(ds.Rows, ds.Cardinalities(), rock.Config{K: k, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "WOCIL", Deterministic: true, Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := wocil.Run(ds.Rows, ds.Cardinalities(), wocil.Config{K: k})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "FKMAWCW", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := fkmawcw.Run(ds.Rows, ds.Cardinalities(), fkmawcw.Config{K: k, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "GUDMM", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := gudmm.Run(ds.Rows, ds.Cardinalities(), gudmm.Config{K: k, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "ADC", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			res, err := adc.Run(ds.Rows, ds.Cardinalities(), adc.Config{K: k, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				return nil, err
			}
			return res.Labels, nil
		}},
		{Name: "MCDC", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			return mcdcPipeline(ds, k, seed, nil)
		}},
		{Name: "MCDC+G.", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			return mcdcPipeline(ds, k, seed, func(enc [][]int, card []int, k int, rng *rand.Rand) ([]int, error) {
				res, err := gudmm.Run(enc, card, gudmm.Config{K: k, Rand: rng})
				if err != nil {
					return nil, err
				}
				return res.Labels, nil
			})
		}},
		{Name: "MCDC+F.", Run: func(ds *categorical.Dataset, k int, seed int64) ([]int, error) {
			return mcdcPipeline(ds, k, seed, func(enc [][]int, card []int, k int, rng *rand.Rand) ([]int, error) {
				res, err := fkmawcw.Run(enc, card, fkmawcw.Config{K: k, Rand: rng})
				if err != nil {
					return nil, err
				}
				return res.Labels, nil
			})
		}},
	}
}

// MethodByName looks a method up by its Table-III column name.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods() {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("experiments: unknown method %q", name)
}

// round3 rounds to three decimals, the paper's table precision.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
