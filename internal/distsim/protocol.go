package distsim

import (
	"fmt"

	"mcdc/internal/categorical"
)

// Wire protocol between the coordinator and its workers. Every frame is one
// gob-encoded message; Kind discriminates the payload. A connection opens
// with a version handshake: each side's hello carries its ProtocolVersion
// and each side requires an exact match, so a peer built for another version
// fails fast and by name instead of with a decode panic (or silently
// mis-interpreted statistics) mid-job.
//
// Version history:
//
//	v1  handshake-less; such a peer fails the handshake with an
//	    "unversioned build" error rather than a gob mismatch.
//	v2  the hello handshake.
//	v3  per-connection cardinality caching: the coordinator sends
//	    Cardinalities on the first task only and the worker reuses them,
//	    trimming every subsequent task frame.
const ProtocolVersion = 3

// messageKind discriminates protocol frames.
type messageKind int

const (
	// kindTask carries a shard of work from coordinator to worker.
	kindTask messageKind = iota + 1
	// kindResult carries the shard statistics from worker to coordinator.
	kindResult
	// kindDone tells the worker no work remains.
	kindDone
	// kindHello opens a connection in both directions, carrying Proto.
	kindHello
)

// message is the single frame type exchanged over the wire.
type message struct {
	Kind messageKind

	// Proto is the sender's protocol version (hello frames only).
	Proto int

	// Task fields (coordinator → worker). Cardinalities is nil on follow-up
	// tasks (the worker caches them from the connection's first task).
	ShardID       int
	Rows          [][]int
	Cardinalities []int

	// Result fields (worker → coordinator).
	Stats ShardStats
}

// ShardStats is the per-shard analytics a worker computes: the object count,
// the per-feature mode, the per-feature value histograms, and the cohesion of
// the shard. It is the local sufficient statistic a central server needs to
// refine or merge clusters without moving the raw objects again.
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

// checkRows requires every row to hold one value per feature of the schema
// card, each Missing or in [0, card[r]), and no cardinality to be negative.
// Rows and schema arrive over the network, so a worker checks them before
// it counts anything.
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
