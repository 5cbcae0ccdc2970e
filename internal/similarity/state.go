package similarity

import "fmt"

// TableState is the exported, serializable form of a Tables: the per-cluster
// value-frequency statistics without the raw data rows. It is what model
// snapshots and stream checkpoints persist — the learned sufficient
// statistics survive a restart even though the objects that produced them do
// not.
type TableState struct {
	// Card holds the per-feature domain sizes.
	Card []int
	// K is the number of cluster slots (including empty ones).
	K int
	// Stride is the flat-index stride (max cardinality).
	Stride int
	// Sizes[l] is the object count of cluster l.
	Sizes []int
	// Counts[l][r*Stride+v] counts cluster-l members with value v on
	// feature r.
	Counts [][]int
	// Seen[l][r] counts the non-missing members of cluster l on feature r.
	Seen [][]int
	// GlobalCount / GlobalSeen are the whole-data-set statistics backing the
	// inter-cluster difference term of Eq. (15).
	GlobalCount []int
	GlobalSeen  []int
}

// State exports a deep copy of the tables' statistics. The raw data rows are
// not included: a restored Tables serves frequency lookups and similarity
// probes for arbitrary rows, not index-based membership updates.
func (t *Tables) State() *TableState {
	x := t.ix
	st := &TableState{
		Card:        append([]int(nil), x.card...),
		K:           t.k,
		Stride:      x.stride,
		Sizes:       append([]int(nil), t.size...),
		Counts:      make([][]int, t.k),
		Seen:        make([][]int, t.k),
		GlobalCount: append([]int(nil), x.globalCount...),
		GlobalSeen:  append([]int(nil), x.globalSeen...),
	}
	for l := 0; l < t.k; l++ {
		st.Counts[l] = append([]int(nil), t.count[l]...)
		st.Seen[l] = append([]int(nil), t.seen[l]...)
	}
	return st
}

// FromState rebuilds a Tables from exported statistics. Its Index has no
// rows, so only the statistics-facing methods are usable
// (K, D, Size, Count, FeatureWeights, InterClusterDifference,
// IntraClusterSimilarity, ProbeSim); the index-based mutators (Add, Remove)
// and per-object similarities must not be called on it.
func FromState(st *TableState) (*Tables, error) {
	if st == nil {
		return nil, fmt.Errorf("similarity: nil table state")
	}
	if st.K <= 0 {
		return nil, fmt.Errorf("similarity: table state has k = %d, want positive", st.K)
	}
	d := len(st.Card)
	if d == 0 {
		return nil, fmt.Errorf("similarity: table state has no features")
	}
	for r, m := range st.Card {
		if m <= 0 {
			return nil, fmt.Errorf("similarity: table state cardinality[%d] = %d, want positive", r, m)
		}
		if m > st.Stride {
			return nil, fmt.Errorf("similarity: table state stride %d below cardinality[%d] = %d", st.Stride, r, m)
		}
	}
	if len(st.Sizes) != st.K || len(st.Counts) != st.K || len(st.Seen) != st.K {
		return nil, fmt.Errorf("similarity: table state cluster slices disagree with k = %d", st.K)
	}
	x := &Index{
		card:        append([]int(nil), st.Card...),
		stride:      st.Stride,
		globalCount: append([]int(nil), st.GlobalCount...),
		globalSeen:  append([]int(nil), st.GlobalSeen...),
	}
	if len(x.globalCount) == 0 {
		x.globalCount = make([]int, d*st.Stride)
	}
	if len(x.globalSeen) == 0 {
		x.globalSeen = make([]int, d)
	}
	t := &Tables{
		ix:    x,
		k:     st.K,
		size:  append([]int(nil), st.Sizes...),
		count: make([][]int, st.K),
		seen:  make([][]int, st.K),
	}
	for l := 0; l < st.K; l++ {
		if len(st.Counts[l]) != d*st.Stride || len(st.Seen[l]) != d {
			return nil, fmt.Errorf("similarity: table state cluster %d has malformed statistics", l)
		}
		t.count[l] = append([]int(nil), st.Counts[l]...)
		t.seen[l] = append([]int(nil), st.Seen[l]...)
	}
	return t, nil
}

// ProbeSim computes the Eq. (1) similarity of an arbitrary (possibly unseen)
// row to cluster l: the mean, over the row's features, of the fraction of
// cluster members sharing the row's value. Values outside [0, card) and
// features with no cluster mass contribute 0. It takes the row itself rather
// than a data-set index, so it works on data-less restored tables and on rows
// that were never part of the training window.
func (t *Tables) ProbeSim(row []int, l int) float64 {
	if len(row) == 0 || t.size[l] == 0 {
		return 0
	}
	cl, sl, card := t.count[l], t.seen[l], t.ix.card
	var sum float64
	for r, v := range row {
		if v < 0 || r >= len(card) || v >= card[r] || sl[r] == 0 {
			continue
		}
		sum += float64(cl[r*t.ix.stride+v]) / float64(sl[r])
	}
	return sum / float64(len(row))
}
