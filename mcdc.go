// Package mcdc is a pure-Go implementation of MCDC — Multi-Granular
// Competitive-learning-guided Categorical Data Clustering (Cai et al.,
// ICDCS 2024). It clusters data sets whose features are qualitative
// (categorical), with two cooperating components:
//
//   - MGCPL (Multi-Granular Competitive Penalization Learning) explores the
//     nested cluster structure of the data, converging in stages at a
//     decreasing series of naturally compact cluster counts κ = {k₁…k_σ}
//     without knowing the true number of clusters.
//   - CAME (Cluster Aggregation based on MGCPL Encoding) turns the
//     multi-granular partitions into an embedding Γ and produces a final
//     partition into a sought number of clusters k by feature-weighted
//     k-modes on Γ.
//
// Quick start:
//
//	ds, _ := mcdc.ReadCSVFile("nodes.csv", true, -1)
//	res, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(1))
//	// res.Labels holds the partition; res.Kappa the discovered granularities.
//
// The multi-granular analysis alone (no sought k needed):
//
//	mg, err := mcdc.Explore(ds, mcdc.WithSeed(1))
//	fmt.Println(mg.Kappa) // e.g. [41 17 6 3]
//
// Both entry points run in O(d·n·k₀) time per MGCPL pass, with k₀ = ⌈√n⌉
// by default, so O(d·n^1.5) per pass. They are deterministic for a fixed
// seed.
package mcdc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"mcdc/internal/categorical"
	"mcdc/internal/core"
)

// Dataset is the categorical data container consumed by the library: objects
// over integer-coded qualitative features. Build one with ReadCSV/
// ReadCSVFile, FromStrings, NewDataset, or a generator from the builtin
// corpus (Builtin).
type Dataset = categorical.Dataset

// Feature describes one categorical feature (name + value labels).
type Feature = categorical.Feature

// Missing is the sentinel value code for a missing (NULL) entry.
const Missing = categorical.Missing

// MultiGranular is the result of the MGCPL analysis: partitions of the data
// at each discovered granularity, coarsest last.
type MultiGranular struct {
	// Kappa is κ: the number of clusters at each granularity level,
	// strictly decreasing; Kappa[len(Kappa)-1] is MGCPL's estimate of the
	// natural number of clusters.
	Kappa []int
	// Levels[j] is the label vector Y_j (length n) of granularity level j.
	Levels [][]int

	inner *core.MGCPLResult
}

// Encoding returns Γ, the n×σ multi-granular embedding: row i concatenates
// object i's cluster label at every granularity. Any categorical clustering
// algorithm can run on it (see Result for the built-in aggregation).
func (m *MultiGranular) Encoding() [][]int { return m.inner.Encoding() }

// EstimatedK returns MGCPL's estimate of the natural number of clusters
// (the final, coarsest k_σ).
func (m *MultiGranular) EstimatedK() int { return m.Kappa[len(m.Kappa)-1] }

// Result is the output of the full MCDC pipeline.
type Result struct {
	// Labels is the final partition into the sought number of clusters.
	Labels []int
	// MultiGranular is the underlying MGCPL analysis.
	MultiGranular *MultiGranular
	// Theta holds CAME's learned importance of each granularity level
	// (summing to 1); nil when a custom final clusterer was used.
	Theta []float64

	// modelSrc carries the learned state Model() freezes into a snapshot.
	modelSrc *modelSource
}

// modelSource is everything needed to persist the trained model: the
// training rows and schema, the pooled Γ encoding, and CAME's converged
// modes/θ — or, on the custom-final-clusterer path, just the flat labels.
type modelSource struct {
	name     string
	rows     [][]int
	card     []int
	values   [][]string // per-feature value labels (the code dictionary)
	encoding [][]int
	modes    [][]int
	theta    []float64
	kappa    []int
	k        int
	flat     bool // custom final clusterer: freeze the flat partition only
	labels   []int
}

// featureValues extracts the per-feature value-label dictionary of a data
// set, so a frozen model can re-code differently-loaded inputs later.
func featureValues(d *Dataset) [][]string {
	vals := make([][]string, len(d.Features))
	for r, f := range d.Features {
		vals[r] = append([]string(nil), f.Values...)
	}
	return vals
}

// Explore runs MGCPL on the data set and returns the multi-granular cluster
// analysis. It requires no sought number of clusters.
func Explore(d *Dataset, opts ...Option) (*MultiGranular, error) {
	rows, card, err := prepare(d)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	res, err := core.RunMGCPL(rows, card, core.MGCPLConfig{
		LearningRate: o.learningRate,
		InitialK:     o.initialK,
		Workers:      o.workers,
		Rand:         rand.New(rand.NewSource(o.seed)),
	})
	if err != nil {
		return nil, err
	}
	return wrapMG(res), nil
}

// Cluster runs the full MCDC pipeline: MGCPL exploration followed by CAME
// aggregation into k clusters. Use WithFinalClusterer to substitute another
// algorithm (e.g. the GUDMM or FKMAWCW enhancers) for CAME on the Γ
// embedding.
func Cluster(d *Dataset, k int, opts ...Option) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mcdc: sought number of clusters must be positive, got %d", k)
	}
	rows, card, err := prepare(d)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	rng := rand.New(rand.NewSource(o.seed))
	mgCfg := core.MGCPLConfig{
		LearningRate: o.learningRate,
		InitialK:     o.initialK,
		Workers:      o.workers,
		Rand:         rng,
	}
	if o.finalClusterer != nil {
		repeats := o.ensemble
		if repeats == 0 {
			// Enhancers default to the single-run encoding of Algorithm 1;
			// set WithEnsemble explicitly to pool several analyses.
			repeats = 1
		}
		enc, first, err := core.PooledEncoding(rows, card, mgCfg, repeats)
		if err != nil {
			return nil, err
		}
		labels, err := o.finalClusterer(enc, encodingCardinalities(enc), k, rng)
		if err != nil {
			return nil, fmt.Errorf("mcdc: final clusterer: %w", err)
		}
		return &Result{Labels: labels, MultiGranular: wrapMG(first), modelSrc: &modelSource{
			name:   d.Name,
			rows:   rows,
			card:   card,
			values: featureValues(d),
			kappa:  first.Kappa(),
			k:      k,
			flat:   true,
			labels: labels,
		}}, nil
	}
	res, err := core.RunMCDC(rows, card, core.MCDCConfig{
		MGCPL:   mgCfg,
		CAME:    core.CAMEConfig{K: k, Workers: o.workers},
		Repeats: o.ensemble,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Labels: res.Labels, MultiGranular: wrapMG(res.MGCPL), Theta: res.CAME.Theta, modelSrc: &modelSource{
		name:     d.Name,
		rows:     rows,
		card:     card,
		values:   featureValues(d),
		encoding: res.Encoding,
		modes:    res.CAME.Modes,
		theta:    res.CAME.Theta,
		kappa:    res.MGCPL.Kappa(),
		k:        len(res.CAME.Modes),
	}}, nil
}

// NewDataset builds a data set directly from integer-coded rows. Feature
// cardinalities are inferred from the maximum code per column.
func NewDataset(name string, rows [][]int) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, categorical.ErrEmptyDataset
	}
	d := len(rows[0])
	card := make([]int, d)
	for _, row := range rows {
		if len(row) != d {
			return nil, errors.New("mcdc: ragged rows")
		}
		for r, v := range row {
			if v+1 > card[r] {
				card[r] = v + 1
			}
		}
	}
	ds := &Dataset{Name: name}
	for r := 0; r < d; r++ {
		f := Feature{Name: fmt.Sprintf("f%d", r)}
		for v := 0; v < card[r]; v++ {
			f.Values = append(f.Values, fmt.Sprintf("v%d", v))
		}
		ds.Features = append(ds.Features, f)
	}
	ds.Rows = make([][]int, len(rows))
	for i, row := range rows {
		ds.Rows[i] = append([]int(nil), row...)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadCSVFile loads a categorical data set from a CSV file. classCol is the
// ground-truth column index (-1 for none); "?" cells are treated as missing.
func ReadCSVFile(path string, hasHeader bool, classCol int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mcdc: %w", err)
	}
	defer f.Close()
	return categorical.ReadCSV(f, path, hasHeader, classCol, "?")
}

func prepare(d *Dataset) ([][]int, []int, error) {
	if d == nil || d.N() == 0 {
		return nil, nil, categorical.ErrEmptyDataset
	}
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mcdc: %w", err)
	}
	return d.Rows, d.Cardinalities(), nil
}

func wrapMG(res *core.MGCPLResult) *MultiGranular {
	mg := &MultiGranular{Kappa: res.Kappa(), inner: res}
	for _, lv := range res.Levels {
		mg.Levels = append(mg.Levels, lv.Labels)
	}
	return mg
}

func encodingCardinalities(enc [][]int) []int {
	if len(enc) == 0 {
		return nil
	}
	card := make([]int, len(enc[0]))
	for _, row := range enc {
		for r, v := range row {
			if v+1 > card[r] {
				card[r] = v + 1
			}
		}
	}
	return card
}

// Hierarchy returns the nested-cluster tree implied by the multi-granular
// analysis: each fine cluster hangs under the coarse cluster absorbing the
// majority of its objects. Render() draws it as indented text — the
// multi-granular counterpart of a dendrogram.
func (m *MultiGranular) Hierarchy() *core.Hierarchy { return m.inner.BuildHierarchy() }
