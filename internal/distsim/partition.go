// Package distsim builds out the distributed-computing scenario the paper
// motivates in §III-D: using MCDC's multi-granular analysis to
//
//  1. pre-partition a categorical data set into compact, locality-preserving
//     shards that a central server can place onto compute nodes, and
//  2. group compute nodes (described by categorical features, Fig. 1 of the
//     paper) into performance-consistent pools.
//
// Stats computes the per-shard statistics each node would derive from the
// shard it holds (counts, modes, value histograms, cohesion), and MergeStats
// combines them the way a central server would, without moving raw objects
// again.
package distsim

import (
	"errors"
	"fmt"
	"sort"
)

// Shard is one locality-preserving unit of work: the object indices of one
// micro-cluster at the chosen granularity.
type Shard struct {
	ID      int
	Cluster int   // micro-cluster id the shard was cut from
	Objects []int // indices into the source data set
}

// Placement maps shards onto nodes.
type Placement struct {
	Shards []Shard
	// NodeOf[shardID] is the node index the shard is placed on.
	NodeOf []int
	// Load[node] is the number of objects placed on the node.
	Load []int
}

// Plan builds a locality-preserving placement of data objects onto `nodes`
// compute nodes from a cluster labeling (typically one granularity level of
// an MGCPL analysis — finer levels give the balancer more freedom, coarser
// levels preserve more correlation).
//
// Each cluster becomes one shard; shards are placed onto the least-loaded
// node, largest-first (LPT scheduling), so objects of the same cluster are
// never split across nodes while node loads stay balanced.
func Plan(labels []int, nodes int) (*Placement, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("distsim: node count must be positive, got %d", nodes)
	}
	if len(labels) == 0 {
		return nil, errors.New("distsim: empty labeling")
	}
	groups := make(map[int][]int)
	for i, l := range labels {
		if l < 0 {
			return nil, fmt.Errorf("distsim: negative label at object %d", i)
		}
		groups[l] = append(groups[l], i)
	}
	p := &Placement{Load: make([]int, nodes)}
	for cluster, objs := range groups {
		p.Shards = append(p.Shards, Shard{Cluster: cluster, Objects: objs})
	}
	// Deterministic order: largest shard first, ties by cluster id.
	sort.Slice(p.Shards, func(a, b int) bool {
		sa, sb := p.Shards[a], p.Shards[b]
		if len(sa.Objects) != len(sb.Objects) {
			return len(sa.Objects) > len(sb.Objects)
		}
		return sa.Cluster < sb.Cluster
	})
	p.NodeOf = make([]int, len(p.Shards))
	for i := range p.Shards {
		p.Shards[i].ID = i
		best := 0
		for nd := 1; nd < nodes; nd++ {
			if p.Load[nd] < p.Load[best] {
				best = nd
			}
		}
		p.NodeOf[i] = best
		p.Load[best] += len(p.Shards[i].Objects)
	}
	return p, nil
}

// Imbalance returns the ratio of the heaviest node load to the ideal
// (uniform) load; 1.0 is perfect balance.
func (p *Placement) Imbalance() float64 {
	total, max := 0, 0
	for _, l := range p.Load {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	ideal := float64(total) / float64(len(p.Load))
	return float64(max) / ideal
}

// LocalityLoss measures how much cluster correlation a placement destroyed:
// the fraction of same-cluster object pairs that ended up on different
// nodes. Plan always returns 0 (clusters are never split); a random or
// round-robin placement scores close to 1−1/nodes.
func LocalityLoss(labels []int, nodeOfObject []int, nodes int) (float64, error) {
	if len(labels) != len(nodeOfObject) {
		return 0, fmt.Errorf("distsim: %d labels vs %d node assignments", len(labels), len(nodeOfObject))
	}
	// Count same-cluster pairs per node cheaply via per-(cluster,node) sizes.
	type key struct{ cluster, node int }
	sizes := make(map[key]int)
	clusterSizes := make(map[int]int)
	for i, l := range labels {
		sizes[key{l, nodeOfObject[i]}]++
		clusterSizes[l]++
	}
	var samePairs, keptPairs float64
	for l, sz := range clusterSizes {
		samePairs += float64(sz) * float64(sz-1) / 2
		for nd := 0; nd < nodes; nd++ {
			s := sizes[key{l, nd}]
			keptPairs += float64(s) * float64(s-1) / 2
		}
	}
	if samePairs == 0 {
		return 0, nil
	}
	return 1 - keptPairs/samePairs, nil
}

// ObjectNodes expands a placement to a per-object node assignment.
func (p *Placement) ObjectNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for si, shard := range p.Shards {
		for _, obj := range shard.Objects {
			out[obj] = p.NodeOf[si]
		}
	}
	return out
}
