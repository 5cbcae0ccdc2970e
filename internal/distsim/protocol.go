package distsim

import "mcdc/internal/similarity"

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
	// shard's rows (1 = all identical; a singleton shard is 1 by
	// convention). Shards are micro-clusters, so a low value flags a
	// granularity level that was cut too coarse for locality-preserving
	// placement.
	Cohesion float64
}

// computeStats derives ShardStats from raw shard rows. The cohesion summary
// streams the condensed pairwise tiling of internal/similarity on all cores
// without materializing the O(s²) matrix, so it is safe on large shards.
func computeStats(shardID int, rows [][]int, cardinalities []int) ShardStats {
	st := ShardStats{
		ShardID:  shardID,
		Count:    len(rows),
		Mode:     make([]int, len(cardinalities)),
		Freq:     make([][]int, len(cardinalities)),
		Cohesion: similarity.MeanPairwise(rows, 0),
	}
	for r, m := range cardinalities {
		st.Freq[r] = make([]int, m)
	}
	for _, row := range rows {
		for r, v := range row {
			if v >= 0 && v < len(st.Freq[r]) {
				st.Freq[r][v]++
			}
		}
	}
	for r := range st.Mode {
		best, bestC := 0, -1
		for v, c := range st.Freq[r] {
			if c > bestC {
				best, bestC = v, c
			}
		}
		st.Mode[r] = best
	}
	return st
}
