// Package hashring implements a consistent-hash ring with virtual nodes —
// the placement primitive behind mcdcd's gateway mode. Keys (session ids,
// row digests) map to backend nodes such that placement is deterministic
// (the same ring membership always yields the same owner for a key,
// regardless of the order nodes were added) and adding or removing one node
// relocates only the ~1/n slice of the key space adjacent to its virtual
// points, never reshuffling keys between surviving nodes.
package hashring

import (
	"slices"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring. The zero value is not usable; construct
// with New. Ring is not safe for concurrent mutation; concurrent Get calls
// are safe as long as no Add/Remove runs. Callers that mutate membership at
// runtime (the gateway's ring join/leave) must hold their own lock across
// both lookups and mutations.
type Ring struct {
	replicas int
	nodes    map[string]struct{}
	points   []point // sorted by (hash, node)
}

// point is one virtual node: the hashed position of "<node>#<i>".
type point struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-point count per node that New falls back
// to: enough that per-node load imbalance stays within a few percent for
// typical fleet sizes. mcdcd's gateway and its backends' replicators both
// build their rings with it, so they read the same successor chains.
const DefaultReplicas = 128

// New builds an empty ring placing each node at `replicas` virtual points
// (≤ 0 falls back to DefaultReplicas).
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// Hash is the ring's key hash (FNV-1a, 64-bit, finalized with a
// splitmix64-style avalanche), exported so tests and diagnostics can
// reproduce placements. The finalizer matters: raw FNV over short,
// near-identical strings ("host#1", "host#2", …) leaves the low bits too
// correlated for an even spread of virtual points around the ring.
func Hash(key string) uint64 { return NewHasher().AddString(key).Sum() }

// Hasher computes Hash incrementally: feeding it a key's bytes in any pieces
// and calling Sum gives Hash(key), so a caller can place a key it never
// builds. It is a value; each Add returns the advanced state.
type Hasher uint64

// FNV-1a's 64-bit parameters (hash/fnv's, spelled out so the state can live
// in a register instead of behind a hash.Hash64).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewHasher returns the state of a hash that has consumed no bytes.
func NewHasher() Hasher { return fnvOffset64 }

// AddByte feeds one byte.
func (h Hasher) AddByte(c byte) Hasher { return (h ^ Hasher(c)) * fnvPrime64 }

// AddBytes feeds b.
func (h Hasher) AddBytes(b []byte) Hasher {
	for _, c := range b {
		h = (h ^ Hasher(c)) * fnvPrime64
	}
	return h
}

// AddString feeds s.
func (h Hasher) AddString(s string) Hasher {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hasher(s[i])) * fnvPrime64
	}
	return h
}

// Sum finalizes the hash of the bytes fed so far.
func (h Hasher) Sum() uint64 {
	z := uint64(h)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Add inserts nodes into the ring. Adding a node that is already present is
// a no-op, so membership — not call history — determines the ring.
func (r *Ring) Add(nodes ...string) {
	changed := false
	for _, n := range nodes {
		if _, ok := r.nodes[n]; ok || n == "" {
			continue
		}
		r.nodes[n] = struct{}{}
		for i := 0; i < r.replicas; i++ {
			r.points = append(r.points, point{hash: Hash(n + "#" + strconv.Itoa(i)), node: n})
		}
		changed = true
	}
	if changed {
		// Sorting by (hash, node) makes hash collisions between different
		// nodes' virtual points resolve deterministically.
		sort.Slice(r.points, func(i, j int) bool {
			if r.points[i].hash != r.points[j].hash {
				return r.points[i].hash < r.points[j].hash
			}
			return r.points[i].node < r.points[j].node
		})
	}
}

// Remove deletes a node and its virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Get returns the node owning key: the first virtual point at or clockwise
// of the key's hash (wrapping past the top of the space). It returns "" on
// an empty ring.
func (r *Ring) Get(key string) (owner string) {
	r.Walk(Hash(key), func(node string) bool {
		owner = node
		return false
	})
	return owner
}

// GetN returns the first n distinct nodes at or clockwise of key's hash —
// index 0 is the owner (same as Get), index 1 its successor, and so on.
// The successor chain is what replication follows: a session owned by
// GetN(key, 2)[0] ships its checkpoints to GetN(key, 2)[1]. Fewer than n
// nodes are returned when the ring has fewer members.
func (r *Ring) GetN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	out := make([]string, 0, min(n, len(r.nodes)))
	r.Walk(Hash(key), func(node string) bool {
		if !slices.Contains(out, node) {
			out = append(out, node)
		}
		return len(out) < cap(out)
	})
	return out
}

// Walk visits the node of every virtual point once, starting at the first
// point at or clockwise of hash h (the owner's) and going clockwise, until
// visit returns false. A node recurs once per virtual point it holds, so
// the first node visit accepts is also the first acceptable one of the
// successor chain GetN returns; callers that want "the first up node" need
// no chain and no allocation.
func (r *Ring) Walk(h uint64, visit func(node string) bool) {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		if !visit(r.points[i].node) {
			return
		}
		i++
	}
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }
