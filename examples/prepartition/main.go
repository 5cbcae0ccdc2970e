// Pre-partitioning for distributed computing: the §III-D(1) scenario of the
// paper. MCDC's multi-granular analysis divides a categorical data set into
// compact micro-clusters; a locality-preserving planner packs them onto
// compute nodes; each node's per-shard statistics are then merged centrally.
//
//	go run ./examples/prepartition
package main

import (
	"fmt"
	"log"

	"mcdc"
	"mcdc/internal/distsim"
)

func main() {
	// The workload: the Mushroom benchmark (8124 objects, 22 categorical
	// features) to be processed by 4 compute nodes.
	ds, err := mcdc.Builtin("Mus.", 1)
	if err != nil {
		log.Fatal(err)
	}
	const nodes = 4
	fmt.Printf("data set: %s, target nodes: %d\n", ds, nodes)

	// 1. Multi-granular analysis. The FINEST granularity gives many compact
	// micro-clusters — ideal shard units: small enough to balance, cohesive
	// enough to preserve local correlations.
	mg, err := mcdc.Explore(ds, mcdc.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("granularities: kappa = %v; sharding at the finest level (k = %d)\n",
		mg.Kappa, mg.Kappa[0])
	micro := mg.Levels[0]

	// 2. Locality-preserving placement: micro-clusters are never split
	// across nodes, loads stay balanced.
	plan, err := distsim.Plan(micro, nodes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: %d shards, node loads %v, imbalance %.3f\n",
		len(plan.Shards), plan.Load, plan.Imbalance())
	loss, err := distsim.LocalityLoss(micro, plan.ObjectNodes(ds.N()), nodes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("locality loss: %.3f (0 = no micro-cluster split across nodes)\n", loss)

	// 3. The per-shard statistics each node computes over the shards it
	// holds.
	stats, err := distsim.Stats(ds.Rows, ds.Cardinalities(), plan)
	if err != nil {
		log.Fatal(err)
	}
	shardsOn := make([]int, nodes)
	for _, nd := range plan.NodeOf {
		shardsOn[nd]++
	}
	fmt.Printf("shards per node: %v\n", shardsOn)

	// 4. Merge the distributed statistics centrally.
	freq, total := distsim.MergeStats(stats, ds.Cardinalities())
	fmt.Printf("merged statistics from %d shards covering %d objects\n", len(stats), total)
	fmt.Printf("global mode of feature %q across all shards: %s\n",
		ds.Features[0].Name, ds.Features[0].Values[argmax(freq[0])])
}

func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
