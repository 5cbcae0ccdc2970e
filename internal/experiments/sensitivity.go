package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mcdc/internal/core"
	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
	"mcdc/internal/parallel"
	"mcdc/internal/stats"
)

// Sensitivity reports how the rival-penalty redundancy threshold τ (the main
// free parameter this implementation adds while resolving the paper's
// Eq. (13) ambiguity — see core.MGCPLConfig.RivalThreshold) shapes the
// analysis: the final granularity k_σ found by MGCPL and the end-to-end MCDC
// ARI, per data set and threshold.
type Sensitivity struct {
	Datasets   []string
	Thresholds []float64
	KStar      []int
	// FinalK[dataset][threshold] is the mean k_σ over the runs.
	FinalK [][]float64
	// ARI[dataset][threshold] is the mean MCDC ARI at k = k*.
	ARI [][]float64
}

// RunSensitivity sweeps the rival threshold on the Table-II corpus. Data
// sets fan out across `workers` goroutines (≤ 0 → GOMAXPROCS, 1 →
// sequential); every run owns a rand seeded only by its (run, threshold)
// indices and each goroutine writes only its own dataset rows, so the sweep
// is identical at any parallelism level.
func RunSensitivity(runs int, seed int64, names []string, thresholds []float64, workers int) (*Sensitivity, error) {
	if runs <= 0 {
		runs = 3
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.75, 0.80, 0.85, 0.90, 0.95}
	}
	infos := datasets.Table2()
	if names != nil {
		var sel []datasets.Info
		for _, want := range names {
			for _, info := range infos {
				if info.Name == want {
					sel = append(sel, info)
				}
			}
		}
		infos = sel
	}
	out := &Sensitivity{
		Thresholds: thresholds,
		Datasets:   make([]string, len(infos)),
		KStar:      make([]int, len(infos)),
		FinalK:     make([][]float64, len(infos)),
		ARI:        make([][]float64, len(infos)),
	}
	err := parallel.ForEach(workers, len(infos), func(di int) error {
		info := infos[di]
		ds := info.Gen(seededRand(seed, int64(di)))
		out.Datasets[di] = info.Name
		out.KStar[di] = info.KStar
		kRow := make([]float64, len(thresholds))
		aRow := make([]float64, len(thresholds))
		for ti, tau := range thresholds {
			var ks, aris []float64
			for run := 0; run < runs; run++ {
				rng := rand.New(rand.NewSource(seed + int64(1000*run+ti)))
				res, err := core.RunMCDC(ds.Rows, ds.Cardinalities(), core.MCDCConfig{
					MGCPL: core.MGCPLConfig{RivalThreshold: tau, Rand: rng},
					CAME:  core.CAMEConfig{K: info.KStar},
				})
				if err != nil {
					return fmt.Errorf("sensitivity %s tau=%.2f: %w", info.Name, tau, err)
				}
				ks = append(ks, float64(res.MGCPL.Final().K))
				ari, err := metrics.AdjustedRandIndex(ds.Labels, res.Labels)
				if err != nil {
					return err
				}
				aris = append(aris, ari)
			}
			kRow[ti] = stats.Mean(ks)
			aRow[ti] = round3(stats.Mean(aris))
		}
		out.FinalK[di] = kRow
		out.ARI[di] = aRow
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Write renders the sweep.
func (s *Sensitivity) Write(w io.Writer) {
	fmt.Fprintln(w, "Rival-threshold sensitivity: mean final k_sigma (and MCDC ARI) per tau")
	fmt.Fprintf(w, "%-6s %4s", "Data", "k*")
	for _, tau := range s.Thresholds {
		fmt.Fprintf(w, "  tau=%.2f      ", tau)
	}
	fmt.Fprintln(w)
	for di, ds := range s.Datasets {
		fmt.Fprintf(w, "%-6s %4d", ds, s.KStar[di])
		for ti := range s.Thresholds {
			fmt.Fprintf(w, "  %5.1f (%.3f)", s.FinalK[di][ti], s.ARI[di][ti])
		}
		fmt.Fprintln(w)
	}
}
