// Package active implements the paper's third future-work direction:
// leveraging MGCPL's multi-granular analysis for active learning, so that a
// human expert labels only a handful of well-chosen objects and the nested
// cluster structure propagates those labels to the rest of the data set.
//
// The query strategy exploits the granularity hierarchy directly: the
// coarsest level decides how the labeling budget is split (big clusters get
// more queries), and within each coarse cluster the queries are placed on
// the medoids of its largest fine-grained sub-clusters — the objects that
// represent the most data. Label propagation then walks the hierarchy from
// fine to coarse: each fine cluster takes the majority label of its queried
// objects if it has any, otherwise the majority label of its parent coarse
// cluster. Every vote breaks ties to the smaller id, so the queries and the
// labeling depend only on the inputs.
package active

import (
	"errors"
	"fmt"
	"sort"

	"mcdc/internal/core"
	"mcdc/internal/kmodes"
)

// Query is one labeling request: present object Index to the oracle.
type Query struct {
	Index       int // object to label
	FineCluster int // fine-granularity cluster it represents
	Weight      int // how many objects that cluster contains
}

// SelectQueries picks at most budget objects to label from a multi-granular
// analysis of rows. It needs at least one granularity level; budget must be
// ≥ the number of coarse clusters to guarantee coverage.
func SelectQueries(rows [][]int, mg *core.MGCPLResult, budget int) ([]Query, error) {
	if mg == nil || mg.Sigma() == 0 {
		return nil, errors.New("active: empty multi-granular analysis")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("active: budget must be positive, got %d", budget)
	}
	fine := mg.Levels[0]
	coarse := mg.Final()

	// Group fine clusters under their dominant coarse parent.
	type fineInfo struct {
		id      int
		size    int
		parent  int
		members []int
	}
	fines := make(map[int]*fineInfo)
	parentVotes := make(map[int]map[int]int)
	for i := range rows {
		f := fine.Labels[i]
		if fines[f] == nil {
			fines[f] = &fineInfo{id: f}
			parentVotes[f] = make(map[int]int)
		}
		fines[f].size++
		fines[f].members = append(fines[f].members, i)
		parentVotes[f][coarse.Labels[i]]++
	}
	for f, votes := range parentVotes {
		fines[f].parent = argmaxVotes(votes)
	}

	// Order fine clusters by size (largest first) with parent round-robin:
	// every coarse cluster gets representation before any gets a second
	// query.
	ordered := make([]*fineInfo, 0, len(fines))
	for _, fi := range fines {
		ordered = append(ordered, fi)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].size != ordered[b].size {
			return ordered[a].size > ordered[b].size
		}
		return ordered[a].id < ordered[b].id
	})
	var queries []Query
	usedParent := make(map[int]int)
	for round := 0; len(queries) < budget && round < len(ordered); {
		progressed := false
		minUse := len(rows)
		for _, fi := range ordered {
			if usedParent[fi.parent] < minUse {
				minUse = usedParent[fi.parent]
			}
		}
		taken := make(map[int]bool, len(queries))
		for _, q := range queries {
			taken[q.FineCluster] = true
		}
		for _, fi := range ordered {
			if len(queries) >= budget {
				break
			}
			if taken[fi.id] || usedParent[fi.parent] > minUse {
				continue
			}
			queries = append(queries, Query{
				Index:       medoid(rows, fi.members),
				FineCluster: fi.id,
				Weight:      fi.size,
			})
			usedParent[fi.parent]++
			progressed = true
		}
		if !progressed {
			break
		}
		round++
	}
	return queries, nil
}

// medoid returns the member minimizing the summed Hamming distance to the
// other members (the most central object of the cluster).
func medoid(rows [][]int, members []int) int {
	if len(members) == 1 {
		return members[0]
	}
	best, bestCost := members[0], int(^uint(0)>>1)
	for _, i := range members {
		cost := 0
		for _, j := range members {
			cost += kmodes.Hamming(rows[i], rows[j])
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// Propagate spreads oracle labels (answers[objectIndex] = class) over the
// whole data set using the granularity hierarchy: every answered object
// keeps its answer; a fine cluster adopts its queried objects' majority
// label (ties to the smaller class); unlabeled fine clusters adopt the
// weighted majority label of their coarse parent; anything still unlabeled
// gets the global majority. Returns a full per-object labeling.
func Propagate(rows [][]int, mg *core.MGCPLResult, answers map[int]int) ([]int, error) {
	if mg == nil || mg.Sigma() == 0 {
		return nil, errors.New("active: empty multi-granular analysis")
	}
	if len(answers) == 0 {
		return nil, errors.New("active: no oracle answers")
	}
	fine := mg.Levels[0]
	coarse := mg.Final()
	n := len(rows)

	// Fine-cluster labels from direct answers: the majority of the answers
	// that land in the cluster. Indices are visited in ascending order, so
	// the error names the smallest out-of-range one, whatever the map order.
	answered := make([]int, 0, len(answers))
	for idx := range answers {
		answered = append(answered, idx)
	}
	sort.Ints(answered)
	fineVotes := make(map[int]map[int]int)
	for _, idx := range answered {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("active: answer index %d out of range", idx)
		}
		f := fine.Labels[idx]
		if fineVotes[f] == nil {
			fineVotes[f] = make(map[int]int)
		}
		fineVotes[f][answers[idx]]++
	}
	fineLabel := make(map[int]int, len(fineVotes))
	for f, votes := range fineVotes {
		fineLabel[f] = argmaxVotes(votes)
	}
	// Coarse-cluster majorities, weighted by fine-cluster sizes.
	coarseVotes := make(map[int]map[int]int)
	fineSize := make(map[int]int)
	fineParent := make(map[int]map[int]int)
	for i := 0; i < n; i++ {
		f := fine.Labels[i]
		fineSize[f]++
		if fineParent[f] == nil {
			fineParent[f] = make(map[int]int)
		}
		fineParent[f][coarse.Labels[i]]++
	}
	globalVotes := make(map[int]int)
	for f, y := range fineLabel {
		parent := argmaxVotes(fineParent[f])
		if coarseVotes[parent] == nil {
			coarseVotes[parent] = make(map[int]int)
		}
		coarseVotes[parent][y] += fineSize[f]
		globalVotes[y] += fineSize[f]
	}
	globalMajority := argmaxVotes(globalVotes)

	out := make([]int, n)
	for i := 0; i < n; i++ {
		if y, ok := answers[i]; ok {
			out[i] = y
			continue
		}
		f := fine.Labels[i]
		if y, ok := fineLabel[f]; ok {
			out[i] = y
			continue
		}
		parent := argmaxVotes(fineParent[f])
		if votes, ok := coarseVotes[parent]; ok && len(votes) > 0 {
			out[i] = argmaxVotes(votes)
			continue
		}
		out[i] = globalMajority
	}
	return out, nil
}

// argmaxVotes returns the id with the most votes, ties to the smaller id.
func argmaxVotes(votes map[int]int) int {
	best, bestC := 0, -1
	for y, c := range votes {
		if c > bestC || (c == bestC && y < best) {
			best, bestC = y, c
		}
	}
	return best
}
