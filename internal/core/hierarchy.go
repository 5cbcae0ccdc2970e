package core

import (
	"fmt"
	"strings"
)

// HierarchyNode is one cluster at one granularity level of the nested
// multi-granular analysis.
type HierarchyNode struct {
	Level    int   // granularity level index (0 = finest)
	Cluster  int   // cluster id within the level
	Size     int   // number of objects
	Children []int // node indices (in Hierarchy.Nodes) one level finer
	Parent   int   // node index one level coarser, -1 at the coarsest level
}

// Hierarchy is the nested-cluster tree implied by an MGCPL result: each fine
// cluster hangs under the coarse cluster that absorbs the majority of its
// objects. It plays the role of the dendrogram in hierarchical clustering,
// at a fraction of the cost (the paper's §I comparison).
type Hierarchy struct {
	Nodes []HierarchyNode
	// Roots are the node indices of the coarsest level's clusters.
	Roots []int
	// index[level][cluster] -> node position
	index map[[2]int]int
}

// BuildHierarchy derives the nested tree from a multi-granular result.
func (r *MGCPLResult) BuildHierarchy() *Hierarchy {
	h := &Hierarchy{index: make(map[[2]int]int)}
	if len(r.Levels) == 0 {
		return h
	}
	// Create nodes per (level, cluster) with sizes.
	for li, lv := range r.Levels {
		sizes := make([]int, lv.K)
		for _, l := range lv.Labels {
			sizes[l]++
		}
		for c := 0; c < lv.K; c++ {
			h.index[[2]int{li, c}] = len(h.Nodes)
			h.Nodes = append(h.Nodes, HierarchyNode{Level: li, Cluster: c, Size: sizes[c], Parent: -1})
		}
	}
	// Link each fine cluster, in id order, to the coarse cluster that holds
	// most of its objects; a tie goes to the smaller coarse id. Children are
	// appended in id order, so every Children list comes out sorted.
	for li := 0; li+1 < len(r.Levels); li++ {
		fine, coarse := r.Levels[li], r.Levels[li+1]
		votes := make([]int, fine.K*coarse.K)
		for i, f := range fine.Labels {
			votes[f*coarse.K+coarse.Labels[i]]++
		}
		for f := 0; f < fine.K; f++ {
			p, best := -1, 0
			for c, v := range votes[f*coarse.K : (f+1)*coarse.K] {
				if v > best {
					p, best = c, v
				}
			}
			if p < 0 {
				continue // an empty fine cluster has no parent
			}
			fi := h.index[[2]int{li, f}]
			pi := h.index[[2]int{li + 1, p}]
			h.Nodes[fi].Parent = pi
			h.Nodes[pi].Children = append(h.Nodes[pi].Children, fi)
		}
	}
	top := len(r.Levels) - 1
	for c := 0; c < r.Levels[top].K; c++ {
		h.Roots = append(h.Roots, h.index[[2]int{top, c}])
	}
	return h
}

// Node returns the node for (level, cluster), or nil when absent.
func (h *Hierarchy) Node(level, cluster int) *HierarchyNode {
	if i, ok := h.index[[2]int{level, cluster}]; ok {
		return &h.Nodes[i]
	}
	return nil
}

// Render draws the tree as indented text, coarsest level first — the
// multi-granular counterpart of a dendrogram printout.
func (h *Hierarchy) Render() string {
	var b strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		n := h.Nodes[idx]
		fmt.Fprintf(&b, "%s[L%d] cluster %d (%d objects)\n",
			strings.Repeat("  ", depth), n.Level+1, n.Cluster, n.Size)
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	for _, root := range h.Roots {
		walk(root, 0)
	}
	return b.String()
}
