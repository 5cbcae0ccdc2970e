package distsim

import (
	"errors"
	"fmt"

	"mcdc/internal/categorical"
)

// ShardStats is the per-shard analytics a node computes over the shard it
// holds: the object count, the per-feature mode, the per-feature value
// histograms, and the cohesion of the shard. It is the local sufficient
// statistic a central server needs to refine or merge clusters without
// moving the raw objects again.
type ShardStats struct {
	ShardID int
	Count   int
	Mode    []int
	// Freq[r][v] counts shard objects with value v on feature r.
	Freq [][]int
	// Cohesion is the mean pairwise simple-matching similarity of the
	// shard's rows: over all pairs of rows, the fraction of features on
	// which both hold the same non-missing value (1 = all identical; a
	// singleton shard is 1 by convention). Shards are micro-clusters, so a
	// low value flags a granularity level that was cut too coarse for
	// locality-preserving placement.
	Cohesion float64
}

// Stats computes the statistics of every shard of the placement over the
// data set's rows: out[i] belongs to plan.Shards[i]. It refuses an empty
// placement, rows that do not fit the schema, and a shard naming an object
// outside the rows.
func Stats(rows [][]int, cardinalities []int, plan *Placement) ([]ShardStats, error) {
	if plan == nil || len(plan.Shards) == 0 {
		return nil, errors.New("distsim: empty placement")
	}
	if err := checkRows(rows, cardinalities); err != nil {
		return nil, fmt.Errorf("distsim: %w", err)
	}
	out := make([]ShardStats, len(plan.Shards))
	for i, s := range plan.Shards {
		shard := make([][]int, len(s.Objects))
		for j, obj := range s.Objects {
			if obj < 0 || obj >= len(rows) {
				return nil, fmt.Errorf("distsim: shard %d object %d: outside rows [0, %d)", s.ID, obj, len(rows))
			}
			shard[j] = rows[obj]
		}
		out[i] = computeStats(s.ID, shard, cardinalities)
	}
	return out, nil
}

// checkRows requires every row to hold one value per feature of the schema
// card, each Missing or in [0, card[r]), and no cardinality to be negative,
// so computeStats never indexes past a histogram or sizes one negatively.
func checkRows(rows [][]int, card []int) error {
	for r, m := range card {
		if m < 0 {
			return fmt.Errorf("feature %d: negative cardinality %d", r, m)
		}
	}
	for i, row := range rows {
		if len(row) != len(card) {
			return fmt.Errorf("row %d has %d values, want one per feature (%d)", i, len(row), len(card))
		}
		for r, v := range row {
			if v != categorical.Missing && (v < 0 || v >= card[r]) {
				return fmt.Errorf("row %d feature %d: value %d outside [0, %d)", i, r, v, card[r])
			}
		}
	}
	return nil
}

// computeStats derives ShardStats from shard rows that passed checkRows.
// Cohesion needs no pair loop: two rows match on feature r exactly when
// they share a non-missing value v, so feature r contributes
// Σ_v C(Freq[r][v], 2) matching pairs (Simpson's index without replacement,
// unnormalized), and the mean over all C(n, 2) pairs and d features is one
// division of exact integer counts.
func computeStats(shardID int, rows [][]int, cardinalities []int) ShardStats {
	st := ShardStats{
		ShardID:  shardID,
		Count:    len(rows),
		Mode:     make([]int, len(cardinalities)),
		Freq:     make([][]int, len(cardinalities)),
		Cohesion: 1,
	}
	for r, m := range cardinalities {
		st.Freq[r] = make([]int, m)
	}
	for _, row := range rows {
		for r, v := range row {
			if v != categorical.Missing {
				st.Freq[r][v]++
			}
		}
	}
	var matches int64 // matching (pair, feature) cells
	for r, freq := range st.Freq {
		best, bestC := 0, -1
		for v, c := range freq {
			if c > bestC {
				best, bestC = v, c
			}
			matches += int64(c) * int64(c-1) / 2
		}
		st.Mode[r] = best
	}
	if n := int64(len(rows)); n >= 2 {
		st.Cohesion = float64(matches) / float64(int64(len(cardinalities))*n*(n-1)/2)
	}
	return st
}

// MergeStats combines per-shard statistics into fleet-wide per-feature
// histograms — the aggregation a central server performs after the
// distributed pass.
func MergeStats(stats []ShardStats, cardinalities []int) ([][]int, int) {
	freq := make([][]int, len(cardinalities))
	for r, m := range cardinalities {
		freq[r] = make([]int, m)
	}
	total := 0
	for _, st := range stats {
		total += st.Count
		for r := range st.Freq {
			for v, cnt := range st.Freq[r] {
				freq[r][v] += cnt
			}
		}
	}
	return freq, total
}
