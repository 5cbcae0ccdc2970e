package distsim

import (
	"fmt"
	"math/rand"
	"sort"

	"mcdc/internal/categorical"
)

// NodeCatalog generates a categorical data set describing a fleet of compute
// nodes, the Fig. 1 scenario of the paper: qualitative features such as GPU
// type and load levels. The fleet is drawn from `profiles` latent hardware
// profiles so that a clustering of the catalog recovers performance-
// consistent node groups.
func NodeCatalog(n, profiles int, rng *rand.Rand) *categorical.Dataset {
	if profiles < 1 {
		profiles = 1
	}
	features := []categorical.Feature{
		{Name: "gpu-type", Values: []string{"A", "B", "C", "D"}},
		{Name: "gpu-usage", Values: []string{"low", "mid", "high"}},
		{Name: "mem-usage", Values: []string{"low", "mid", "high"}},
		{Name: "net-tier", Values: []string{"10G", "25G", "100G"}},
		{Name: "storage", Values: []string{"hdd", "ssd", "nvme"}},
		{Name: "numa", Values: []string{"single", "dual"}},
	}
	d := &categorical.Dataset{Name: "nodes", Features: features}
	// Each profile picks a characteristic value per feature; nodes of the
	// profile take it with probability 0.8.
	char := make([][]int, profiles)
	for p := range char {
		char[p] = make([]int, len(features))
		for r, f := range features {
			char[p][r] = rng.Intn(f.Cardinality())
		}
	}
	for i := 0; i < n; i++ {
		p := i % profiles
		row := make([]int, len(features))
		for r, f := range features {
			if rng.Float64() < 0.8 {
				row[r] = char[p][r]
			} else {
				row[r] = rng.Intn(f.Cardinality())
			}
		}
		d.Rows = append(d.Rows, row)
		d.Labels = append(d.Labels, p)
	}
	return d
}

// GroupConsistency scores a node grouping: the mean, over groups, of the
// fraction of the group's nodes sharing the group's dominant latent profile
// (1.0 = every group is performance-uniform).
func GroupConsistency(profiles, groups []int) (float64, error) {
	if len(profiles) != len(groups) {
		return 0, fmt.Errorf("distsim: %d profiles vs %d group labels", len(profiles), len(groups))
	}
	counts := make(map[int]map[int]int)
	sizes := make(map[int]int)
	for i, g := range groups {
		if counts[g] == nil {
			counts[g] = make(map[int]int)
		}
		counts[g][profiles[i]]++
		sizes[g]++
	}
	// Sum in ascending group id: float addition is not associative, so map
	// order would change the last bits from call to call.
	ids := make([]int, 0, len(counts))
	for g := range counts {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	var total float64
	for _, g := range ids {
		best := 0
		for _, c := range counts[g] {
			if c > best {
				best = c
			}
		}
		total += float64(best) / float64(sizes[g])
	}
	return total / float64(len(counts)), nil
}
