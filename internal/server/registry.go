package server

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mcdc/internal/model"
)

// servedModel is one registry entry: the live snapshot behind an atomic
// pointer (so /assign readers never block on a hot swap), the rolling buffer
// of recently served traffic the background re-learner trains on, and the
// entry's drift/re-learn counters.
type servedModel struct {
	name     string
	snap     atomic.Pointer[model.Snapshot]
	buf      *trafficBuffer
	relearns atomic.Int64
	lowSim   atomic.Int64 // assignments below the drift similarity threshold
}

func (sm *servedModel) load() *model.Snapshot { return sm.snap.Load() }

// registry maps model names to served models. Lookups take a read lock only
// for the map access; the snapshot itself is reached lock-free through the
// entry's atomic pointer, so a re-learn swap never stalls the assign path.
type registry struct {
	mu     sync.RWMutex
	models map[string]*servedModel
}

func newRegistry() *registry {
	return &registry{models: make(map[string]*servedModel)}
}

func (r *registry) get(name string) (*servedModel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sm, ok := r.models[name]
	return sm, ok
}

// name spells a model name given as bytes, as a frame decodes it, without
// allocating when a model is served under it: the string is the served
// model's own name. Any other name is converted.
func (r *registry) name(b []byte) string {
	r.mu.RLock()
	sm, ok := r.models[string(b)]
	r.mu.RUnlock()
	if !ok {
		return string(b)
	}
	return sm.name
}

// set registers snap under name, hot-swapping atomically when the name is
// already served. Counters survive the swap; the traffic buffer survives
// only when the new snapshot keeps the old feature schema — buffered rows
// were domain-checked against the old cardinalities, and re-learning the new
// model on rows from a different schema would fail (width change) or corrupt
// the count tables (narrowed cardinality). It reports whether an existing
// model was replaced.
func (r *registry) set(name string, snap *model.Snapshot, bufferCap int) (replaced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sm, ok := r.models[name]; ok {
		old := sm.snap.Load()
		sm.snap.Store(snap)
		if !slices.Equal(old.Cardinalities, snap.Cardinalities) {
			sm.buf.take()
		}
		return true
	}
	sm := &servedModel{name: name, buf: newTrafficBuffer(bufferCap)}
	sm.snap.Store(snap)
	r.models[name] = sm
	return false
}

func (r *registry) remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return false
	}
	delete(r.models, name)
	return true
}

// all returns the entries sorted by name (stable iteration for /metrics,
// /healthz, and the re-learn sweep).
func (r *registry) all() []*servedModel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*servedModel, 0, len(r.models))
	for _, sm := range r.models {
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// trafficBuffer is a bounded ring of recently assigned rows — the window a
// background re-learn trains on. Rows are copied in; the buffer owns them.
type trafficBuffer struct {
	mu   sync.Mutex
	rows [][]int
	next int
	cap  int
}

func newTrafficBuffer(capacity int) *trafficBuffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &trafficBuffer{cap: capacity}
}

// add copies row into the ring. Once the ring is full the copy overwrites
// the evicted row's slice in place, which is safe because the ring alone
// holds its slices: take hands a window out whole and leaves the ring
// empty, and restore puts back copies.
func (b *trafficBuffer) add(row []int) {
	b.mu.Lock()
	if len(b.rows) < b.cap {
		b.rows = append(b.rows, append([]int(nil), row...))
	} else {
		b.rows[b.next] = append(b.rows[b.next][:0], row...)
		b.next = (b.next + 1) % b.cap
	}
	b.mu.Unlock()
}

func (b *trafficBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rows)
}

// take returns the buffered rows in arrival order (rotating the ring past
// the cursor) and resets the buffer — each traffic window feeds at most one
// re-learning, and restore relies on oldest-first ordering.
func (b *trafficBuffer) take() [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	rows := b.rows
	if b.next > 0 {
		rows = append(rows[b.next:], rows[:b.next]...)
	}
	b.rows = nil
	b.next = 0
	return rows
}

// restore puts a taken window back (used when a re-learn fails so the rows
// are not lost with it). Best effort: rows that arrived since the take are
// newer and win; the restored rows refill only the remaining capacity, and
// a buffer that wrapped meanwhile is already full of fresher traffic.
func (b *trafficBuffer) restore(rows [][]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.rows) >= b.cap {
		return
	}
	room := b.cap - len(b.rows)
	if len(rows) > room {
		rows = rows[len(rows)-room:] // keep the newest of the restored window
	}
	// Copies, so a later in-place overwrite cannot reach the caller's window.
	restored := make([][]int, 0, len(rows)+len(b.rows))
	for _, row := range rows {
		restored = append(restored, append([]int(nil), row...))
	}
	b.rows = append(restored, b.rows...)
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("server: empty model name")
	}
	for _, c := range name {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return fmt.Errorf("server: model name %q contains %q (allowed: letters, digits, '-', '_', '.')", name, c)
		}
	}
	return nil
}
