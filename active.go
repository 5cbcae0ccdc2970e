package mcdc

import "mcdc/internal/active"

// LabelQuery is one active-learning request: show object Index to a human
// expert. FineCluster identifies the micro-cluster the object represents and
// Weight is that cluster's size.
type LabelQuery = active.Query

// SelectQueries picks at most budget objects whose labels, once provided,
// cover the data set's multi-granular structure: the coarsest granularity
// splits the budget, and queries land on the medoids of the largest
// fine-grained clusters. This is the paper's third future-work direction —
// using MGCPL to cut expert labeling effort.
func SelectQueries(d *Dataset, mg *MultiGranular, budget int) ([]LabelQuery, error) {
	rows, _, err := prepare(d)
	if err != nil {
		return nil, err
	}
	return active.SelectQueries(rows, mg.inner, budget)
}

// PropagateLabels spreads expert answers (answers[objectIndex] = class) over
// the whole data set along the granularity hierarchy: answered objects keep
// their answers, fine clusters adopt the majority of their queried objects'
// labels, unlabeled fine clusters adopt their coarse parent's weighted
// majority. Returns a complete per-object labeling.
func PropagateLabels(d *Dataset, mg *MultiGranular, answers map[int]int) ([]int, error) {
	rows, _, err := prepare(d)
	if err != nil {
		return nil, err
	}
	return active.Propagate(rows, mg.inner, answers)
}
