package hashring

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// TestPlacementDeterministicAcrossAddOrder pins the membership-not-history
// contract: two rings with the same nodes place every key identically no
// matter the order the nodes were added in.
func TestPlacementDeterministicAcrossAddOrder(t *testing.T) {
	a := New(64)
	a.Add("10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080")
	b := New(64)
	b.Add("10.0.0.3:8080")
	b.Add("10.0.0.1:8080")
	b.Add("10.0.0.2:8080")
	b.Add("10.0.0.2:8080") // duplicate add is a no-op
	for _, k := range keys(5000) {
		if a.Get(k) != b.Get(k) {
			t.Fatalf("key %q: %q vs %q (add order changed placement)", k, a.Get(k), b.Get(k))
		}
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("memberships differ: %v vs %v", a.Nodes(), b.Nodes())
	}
}

// TestRebalanceMovesOnlyToNewNode checks the consistent-hashing property:
// adding a node moves ≈1/n of the keys, all of them onto the new node, and
// removing it restores the original placement exactly.
func TestRebalanceMovesOnlyToNewNode(t *testing.T) {
	r := New(128)
	r.Add("a", "b", "c")
	ks := keys(20000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = r.Get(k)
	}

	r.Add("d")
	moved := 0
	for _, k := range ks {
		got := r.Get(k)
		if got != before[k] {
			moved++
			if got != "d" {
				t.Fatalf("key %q moved %q → %q, not onto the new node", k, before[k], got)
			}
		}
	}
	// Expect ≈ 1/4 of the key space; allow generous slack for hash variance.
	if frac := float64(moved) / float64(len(ks)); frac < 0.10 || frac > 0.45 {
		t.Fatalf("adding 4th node moved %.1f%% of keys, want ≈25%%", 100*frac)
	}

	r.Remove("d")
	for _, k := range ks {
		if r.Get(k) != before[k] {
			t.Fatalf("key %q did not return to %q after removing d", k, before[k])
		}
	}
}

// TestLoadSpreadsAcrossNodes guards against virtual-point degeneracy: with
// enough replicas every node owns a non-trivial share of a uniform key set.
func TestLoadSpreadsAcrossNodes(t *testing.T) {
	r := New(128)
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r.Add(nodes...)
	load := make(map[string]int)
	ks := keys(50000)
	for _, k := range ks {
		load[r.Get(k)]++
	}
	want := float64(len(ks)) / float64(len(nodes))
	for _, n := range nodes {
		if got := float64(load[n]); got < 0.5*want || got > 1.5*want {
			t.Errorf("node %s owns %d keys, want within ±50%% of %.0f (loads %v)", n, load[n], want, load)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	r := New(0) // default replicas
	if got := r.Get("anything"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
	if r.Len() != 0 {
		t.Fatalf("empty ring Len = %d", r.Len())
	}
	r.Add("") // empty node name ignored
	if r.Len() != 0 {
		t.Fatal("empty node name was added")
	}
	r.Add("solo")
	for _, k := range keys(100) {
		if r.Get(k) != "solo" {
			t.Fatal("single-node ring must own every key")
		}
	}
	r.Remove("ghost") // absent node: no-op
	r.Remove("solo")
	if r.Get("x") != "" || r.Len() != 0 {
		t.Fatal("ring not empty after removing its only node")
	}
}

// TestGetNSuccessorChain pins GetN's contract: index 0 agrees with Get, the
// chain holds distinct nodes in clockwise order, is capped at the membership
// size, and removing the owner promotes exactly the old successor to owner
// for every key (the property replica failover relies on).
func TestGetNSuccessorChain(t *testing.T) {
	r := New(128)
	r.Add("a", "b", "c", "d")
	for _, k := range keys(2000) {
		chain := r.GetN(k, 2)
		if len(chain) != 2 {
			t.Fatalf("key %q: chain %v, want length 2", k, chain)
		}
		if chain[0] != r.Get(k) {
			t.Fatalf("key %q: GetN[0]=%q disagrees with Get=%q", k, chain[0], r.Get(k))
		}
		if chain[0] == chain[1] {
			t.Fatalf("key %q: successor equals owner %q", k, chain[0])
		}
		full := r.GetN(k, 99)
		if len(full) != 4 {
			t.Fatalf("key %q: over-ask returned %d nodes", k, len(full))
		}
		seen := map[string]bool{}
		for _, n := range full {
			if seen[n] {
				t.Fatalf("key %q: duplicate node %q in chain %v", k, n, full)
			}
			seen[n] = true
		}
	}

	// Failover property: with the owner gone, the old successor owns the key.
	for _, k := range keys(500) {
		chain := r.GetN(k, 2)
		r2 := New(128)
		for _, n := range r.Nodes() {
			if n != chain[0] {
				r2.Add(n)
			}
		}
		if got := r2.Get(k); got != chain[1] {
			t.Fatalf("key %q: after losing owner %q, Get=%q, want successor %q", k, chain[0], got, chain[1])
		}
	}

	if got := New(64).GetN("x", 3); got != nil {
		t.Fatalf("empty ring: GetN = %v, want nil", got)
	}
	if got := r.GetN("x", 0); got != nil {
		t.Fatalf("n=0: GetN = %v, want nil", got)
	}
}

// TestHasherIncremental pins the key hash and its incremental form: Hash is
// FNV-1a 64 (hash/fnv's) finalized with splitmix64, and feeding a Hasher
// the key's bytes in any split, as a string or as bytes, gives that sum.
func TestHasherIncremental(t *testing.T) {
	for _, k := range append(keys(300), "", "r|m|1|-2|9223372036854775807", "模型|é|-1") {
		f := fnv.New64a()
		f.Write([]byte(k))
		z := f.Sum64()
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if got := Hash(k); got != z {
			t.Fatalf("Hash(%q) = %x, FNV-1a + splitmix64 gives %x", k, got, z)
		}
		for cut := 0; cut <= len(k); cut++ {
			if got := NewHasher().AddString(k[:cut]).AddBytes([]byte(k[cut:])).Sum(); got != z {
				t.Fatalf("key %q split at %d: %x, want %x", k, cut, got, z)
			}
		}
		h := NewHasher()
		for i := 0; i < len(k); i++ {
			h = h.AddByte(k[i])
		}
		if h.Sum() != z {
			t.Fatalf("key %q fed byte by byte: %x, want %x", k, h.Sum(), z)
		}
	}
}

// TestWalkFollowsTheChain pins Walk against GetN: the distinct nodes it
// visits, in first-visit order, are the key's successor chain; it starts at
// the owner, visits every virtual point once, and stops when told to.
func TestWalkFollowsTheChain(t *testing.T) {
	r := New(32)
	r.Add("a", "b", "c", "d")
	for _, k := range keys(1000) {
		var order []string
		visits := 0
		r.Walk(Hash(k), func(node string) bool {
			visits++
			if !slices.Contains(order, node) {
				order = append(order, node)
			}
			return true
		})
		if visits != 4*32 {
			t.Fatalf("key %q: %d visits, want one per virtual point (%d)", k, visits, 4*32)
		}
		if want := r.GetN(k, 4); !reflect.DeepEqual(order, want) {
			t.Fatalf("key %q: walk order %v, GetN %v", k, order, want)
		}
		first := ""
		visits = 0
		r.Walk(Hash(k), func(node string) bool { first = node; visits++; return false })
		if visits != 1 || first != r.Get(k) {
			t.Fatalf("key %q: stopped walk made %d visits starting at %q, owner %q", k, visits, first, r.Get(k))
		}
	}
	New(8).Walk(1, func(string) bool { t.Fatal("empty ring visited a node"); return false })
}
