// Package model implements versioned, persistable snapshots of learned MCDC
// state. A Snapshot freezes everything the serving path needs to answer
// "which cluster does this object belong to?" without re-learning: the
// per-granularity value-frequency tables of the pooled Γ encoding, CAME's
// granularity importances θ and converged cluster modes, and the κ hierarchy
// of the analysis. Snapshots serialize to a self-describing envelope
// (magic + kind + format version, then the gob payload), so a build that
// cannot read a file fails fast with a version error instead of decoding
// garbage.
//
// Assignment replays the learned pipeline on a fresh row: the row is first
// placed at every granularity level by maximum frequency similarity against
// that level's tables (Eq. (1) of the paper), which reconstructs its Γ
// encoding; the final cluster is then the θ-weighted nearest mode (Eq. (20)),
// exactly the rule CAME's last sweep applied to the training objects. On
// training rows of well-separated data this reproduces Cluster()'s labels
// bit-for-bit; near cluster boundaries it is the model's best online guess.
package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"mcdc/internal/parallel"
	"mcdc/internal/similarity"
)

// FormatVersion is the snapshot wire-format version this build reads and
// writes. Policy: the version is bumped on any incompatible change to the
// envelope or the gob payload structs; Load refuses other versions with a
// *VersionError rather than guessing. Forward compatibility is out of scope —
// re-train or convert with a build that speaks both versions.
//
// History: v1 — initial envelope; v2 — StreamState gained the ownership
// epoch (replica-promotion fencing) and the idempotent-replay cache; v3 —
// StreamState.RandSeed became the stream's fixed seed, from which every
// re-learning derives its random stream, so a v2 checkpoint would resume on
// a different stream; v4 — the gob payload follows the header directly
// instead of through gzip: compression was ~85% of every save's time and
// ~97% of the bytes it allocated, and gob never read gzip's CRC trailer.
const FormatVersion = 4

// magic identifies MCDC snapshot files; it is followed by a kind byte and
// the format version byte.
var magic = []byte("MCDCSNAP")

const (
	kindModel  byte = 'M' // a Snapshot
	kindStream byte = 'S' // a StreamState
)

func kindName(k byte) string {
	switch k {
	case kindModel:
		return "model"
	case kindStream:
		return "stream"
	default:
		return fmt.Sprintf("unknown(0x%02x)", k)
	}
}

// ErrNotSnapshot is returned when the input does not start with the MCDC
// snapshot magic.
var ErrNotSnapshot = errors.New("model: not an MCDC snapshot (bad magic)")

// VersionError reports a snapshot written under an incompatible format
// version.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("model: snapshot format version %d, this build reads version %d — re-train the model or use a matching build", e.Got, e.Want)
}

// Assignment is the serving-side counterpart of a clustering label: where a
// row lands under a frozen model.
type Assignment struct {
	// Cluster is the final cluster id, comparable to Cluster()'s labels.
	Cluster int
	// Similarity is 1 − (θ-weighted Hamming distance to the chosen mode)/Σθ:
	// 1 means the row's reconstructed encoding matches the cluster mode on
	// every granularity level.
	Similarity float64
	// Encoding is the row's reconstructed Γ row (its cluster at every
	// granularity level of the model).
	Encoding []int
}

// Snapshot is a frozen, serializable MCDC model.
type Snapshot struct {
	// Name labels the model (e.g. the training data set).
	Name string
	// Cardinalities fixes the per-feature domain sizes rows must respect.
	Cardinalities []int
	// Values, when present, is the per-feature value-label dictionary of the
	// training data (Values[r][v] is the label integer code v stood for).
	// Integer codes are a per-file artifact of CSV loading — first
	// appearance order — so scoring a different file requires re-coding its
	// labels onto this dictionary (see mcdc.Model.AssignDataset).
	Values [][]string
	// K is the number of final clusters.
	K int
	// Levels holds the frequency tables of each pooled Γ column, in column
	// order.
	Levels []*similarity.TableState
	// Theta is CAME's learned importance of each level (Σ = 1).
	Theta []float64
	// Modes[l] is final cluster l's per-level mode (K rows × len(Levels)
	// columns).
	Modes [][]int
	// Kappa is the κ hierarchy of the (first) multi-granular analysis.
	Kappa []int
	// Epoch counts re-learnings of this model line (0 for a fresh training;
	// a serving daemon increments it on every background re-learn swap).
	Epoch int
	// TrainN is the number of objects the model was learned from.
	TrainN int

	// tables are the Levels rebuilt into probe-ready form; populated by
	// Build/Load, never serialized.
	tables []*similarity.Tables
	// plan is the packed probe plan the serving fast path gathers from;
	// populated by Build/Load alongside tables (nil when the levels'
	// statistics do not share the snapshot schema — then assignInto falls
	// back to the per-feature ProbeSim loop, the cross-check oracle).
	plan *probePlan
}

// probePlan is the precomputed, gather-ready form of a snapshot's level
// tables: for every level and cluster, the per-(feature, value) probability
// float64(count)/float64(seen) laid out flat at r*stride+v — the exact
// quotients ProbeSim forms per call, computed once at Build/Load. A row is
// assigned by packing its values into flat plane indices once (one O(d)
// pass) and then summing plane entries for every cluster of every level:
// the K·σ similarity probes become branch- and division-free gather loops
// over the same indices. Terms are gathered in increasing feature order and
// invalid positions carry +0.0 (adding +0.0 to a non-negative partial sum
// is a bitwise no-op), so every probe value — and therefore every
// assignment — is bit-for-bit identical to the unpacked ProbeSim loop,
// which the property tests pin.
type probePlan struct {
	stride int
	card   []int // the snapshot schema; the in-range check for row values
	levels []probeLevel
}

// probeLevel holds one level's planes: cluster l's plane is
// plane[l*size : (l+1)*size], with size = d·stride.
type probeLevel struct {
	k     int
	size  int
	plane []float64
}

// buildPlan derives the probe plan from the snapshot's serialized level
// statistics. Levels that disagree with the schema (different stride or
// cardinalities — impossible for Build-produced snapshots, conceivable for
// hand-crafted state) leave the plan nil, keeping the slow path exact.
func (s *Snapshot) buildPlan() {
	d := len(s.Cardinalities)
	if d == 0 || len(s.Levels) == 0 {
		return
	}
	stride := s.Levels[0].Stride
	for _, st := range s.Levels {
		if st.Stride != stride || len(st.Card) != d {
			return
		}
		for r, m := range st.Card {
			if m != s.Cardinalities[r] {
				return
			}
		}
	}
	size := d * stride
	plan := &probePlan{stride: stride, card: s.Cardinalities, levels: make([]probeLevel, len(s.Levels))}
	for j, st := range s.Levels {
		plane := make([]float64, st.K*size)
		for l := 0; l < st.K; l++ {
			if st.Sizes[l] == 0 {
				// ProbeSim short-circuits empty clusters to 0; an all-zero
				// plane reproduces that even if the (corrupt) state carried
				// stray counts.
				continue
			}
			dst := plane[l*size : (l+1)*size]
			counts, seen := st.Counts[l], st.Seen[l]
			for r := 0; r < d; r++ {
				if seen[r] == 0 {
					continue
				}
				den := float64(seen[r])
				base := r * stride
				for v := 0; v < st.Card[r]; v++ {
					if c := counts[base+v]; c != 0 {
						dst[base+v] = float64(c) / den
					}
				}
			}
		}
		plan.levels[j] = probeLevel{k: st.K, size: size, plane: plane}
	}
	s.plan = plan
}

// probeGather sums the plane entries at the row's packed indices — the inner
// loop of the packed assignment fast path.
func probeGather(plane []float64, idx []int) float64 {
	var sum float64
	for _, t := range idx {
		sum += plane[t]
	}
	return sum
}

// Build freezes a trained pipeline into a Snapshot: rows and cardinalities
// describe the training data, encoding is the pooled Γ matrix (n×σ), modes
// and theta are CAME's converged state, kappa the analysis hierarchy, and k
// the number of final clusters.
func Build(rows [][]int, cardinalities []int, encoding [][]int, modes [][]int, theta []float64, kappa []int, k int) (*Snapshot, error) {
	n := len(rows)
	if n == 0 || len(encoding) != n {
		return nil, fmt.Errorf("model: %d rows against %d encoding rows", n, len(encoding))
	}
	if k <= 0 || len(modes) != k {
		return nil, fmt.Errorf("model: %d modes against k = %d", len(modes), k)
	}
	sigma := len(theta)
	if sigma == 0 || len(encoding[0]) != sigma {
		return nil, fmt.Errorf("model: encoding has %d levels, theta has %d", len(encoding[0]), sigma)
	}
	for l, mode := range modes {
		if len(mode) != sigma {
			return nil, fmt.Errorf("model: mode %d has %d levels, want %d", l, len(mode), sigma)
		}
	}
	if err := checkTheta(theta); err != nil {
		return nil, err
	}
	s := &Snapshot{
		Cardinalities: append([]int(nil), cardinalities...),
		K:             k,
		Theta:         append([]float64(nil), theta...),
		Modes:         make([][]int, k),
		Kappa:         append([]int(nil), kappa...),
		TrainN:        n,
	}
	for l := range modes {
		s.Modes[l] = append([]int(nil), modes[l]...)
	}
	column := make([]int, n)
	// One index of the rows serves every level's tables. It is built once
	// the first column's labels have passed their check, so a bad label is
	// reported ahead of a bad row.
	var ix *similarity.Index
	for j := 0; j < sigma; j++ {
		// The level's slot count covers both the labels present in the
		// encoding and the mode values referring to it (an empty final
		// cluster may carry a mode above the occupied labels).
		kj := 0
		for i := range encoding {
			column[i] = encoding[i][j]
			if column[i] < 0 {
				return nil, fmt.Errorf("model: negative label in encoding column %d", j)
			}
			if column[i]+1 > kj {
				kj = column[i] + 1
			}
		}
		for l := range modes {
			if modes[l][j]+1 > kj {
				kj = modes[l][j] + 1
			}
		}
		if ix == nil {
			var err error
			if ix, err = similarity.NewIndex(rows, cardinalities); err != nil {
				return nil, fmt.Errorf("model: level %d: %w", j, err)
			}
		}
		t := ix.Tables(kj)
		for i, l := range column {
			t.Add(i, l)
		}
		s.Levels = append(s.Levels, t.State())
		s.tables = append(s.tables, t)
	}
	s.buildPlan()
	return s, nil
}

// FromLabels freezes a flat partition (e.g. from a custom final clusterer)
// into a single-level Snapshot: one frequency table over the final clusters,
// identity modes, and unit level weight. Assignment degenerates to maximum
// frequency similarity against the final clusters.
func FromLabels(rows [][]int, cardinalities []int, labels []int, k int, kappa []int) (*Snapshot, error) {
	if len(labels) != len(rows) {
		return nil, fmt.Errorf("model: %d labels against %d rows", len(labels), len(rows))
	}
	enc := make([][]int, len(rows))
	for i, l := range labels {
		enc[i] = []int{l}
	}
	modes := make([][]int, k)
	for l := range modes {
		modes[l] = []int{l}
	}
	return Build(rows, cardinalities, enc, modes, []float64{1}, kappa, k)
}

// D returns the number of raw features rows must have.
func (s *Snapshot) D() int { return len(s.Cardinalities) }

// validate checks structural invariants and rebuilds the probe tables; it is
// called by Load so a decoded snapshot is ready (and safe) to serve.
func (s *Snapshot) validate() error {
	if s.K <= 0 {
		return fmt.Errorf("model: snapshot has k = %d", s.K)
	}
	if len(s.Cardinalities) == 0 {
		return errors.New("model: snapshot has no feature schema")
	}
	sigma := len(s.Levels)
	if sigma == 0 || len(s.Theta) != sigma {
		return fmt.Errorf("model: snapshot has %d levels but %d theta weights", sigma, len(s.Theta))
	}
	if len(s.Modes) != s.K {
		return fmt.Errorf("model: snapshot has %d modes but k = %d", len(s.Modes), s.K)
	}
	s.tables = make([]*similarity.Tables, sigma)
	for j, st := range s.Levels {
		t, err := similarity.FromState(st)
		if err != nil {
			return fmt.Errorf("model: level %d: %w", j, err)
		}
		if len(st.Card) != len(s.Cardinalities) {
			return fmt.Errorf("model: level %d has %d features, schema has %d", j, len(st.Card), len(s.Cardinalities))
		}
		s.tables[j] = t
	}
	for l, mode := range s.Modes {
		if len(mode) != sigma {
			return fmt.Errorf("model: mode %d has %d levels, want %d", l, len(mode), sigma)
		}
		for j, v := range mode {
			if v < 0 || v >= s.Levels[j].K {
				return fmt.Errorf("model: mode %d refers to level-%d cluster %d of %d", l, j, v, s.Levels[j].K)
			}
		}
	}
	s.buildPlan()
	if err := checkTheta(s.Theta); err != nil {
		return err
	}
	if s.Values != nil {
		if len(s.Values) != len(s.Cardinalities) {
			return fmt.Errorf("model: %d value dictionaries for %d features", len(s.Values), len(s.Cardinalities))
		}
		for r, vals := range s.Values {
			if len(vals) != s.Cardinalities[r] {
				return fmt.Errorf("model: feature %d has %d value labels for cardinality %d", r, len(vals), s.Cardinalities[r])
			}
		}
	}
	return nil
}

// checkTheta refuses level weights a similarity cannot be computed from: a
// weight that is NaN, negative or infinite, or weights whose sum — taken in
// the order assignInto takes it — overflows to +Inf. Either would make
// 1 − bestD/Σθ NaN for a row that misses a mode at those levels; with every
// weight and the sum finite, each partial distance is at most the sum, so
// every similarity lies in [0, 1].
func checkTheta(theta []float64) error {
	var sum float64
	for j, th := range theta {
		if math.IsNaN(th) || th < 0 || math.IsInf(th, 1) {
			return fmt.Errorf("model: theta[%d] = %v", j, th)
		}
		sum += th
	}
	if math.IsInf(sum, 1) {
		return errors.New("model: theta sums past the float64 range")
	}
	return nil
}

// Assign places one integer-coded row under the frozen model. It is safe for
// concurrent use: the snapshot is read-only after Build/Load. Each call
// allocates the result's Encoding slice; on a steady-state serving hot path
// prefer an Assigner, which reuses one scratch buffer and allocates nothing.
func (s *Snapshot) Assign(row []int) (Assignment, error) {
	if s.tables == nil {
		return Assignment{}, errors.New("model: snapshot not initialized (obtain it via Build or Load)")
	}
	return s.assignInto(row, make([]int, len(s.tables)), make([]int, 0, len(s.Cardinalities)))
}

// assignInto is Assign's allocation-free core: the level probe and the
// θ-weighted nearest-mode selection, writing the reconstructed Γ encoding
// into enc (len == Sigma) and returning it as Assignment.Encoding. Callers
// own enc's lifetime: Assign hands over a fresh slice, Assigner and
// AssignBatch reuse scratch/block storage. idx is probe scratch (capacity ≥
// the feature count): the row's in-domain values are packed into flat plane
// indices once, and every level/cluster probe of the fast path gathers over
// them — see probePlan for why the result is bit-identical to the ProbeSim
// loop, which remains both the oracle and the fallback when the snapshot
// has no plan.
func (s *Snapshot) assignInto(row []int, enc, idx []int) (Assignment, error) {
	if len(row) != len(s.Cardinalities) {
		return Assignment{}, fmt.Errorf("model: row has %d features, schema has %d", len(row), len(s.Cardinalities))
	}
	if p := s.plan; p != nil {
		idx = idx[:0]
		for r, v := range row {
			if v >= 0 && v < p.card[r] {
				idx = append(idx, r*p.stride+v)
			}
		}
		den := float64(len(row))
		for j := range p.levels {
			lv := &p.levels[j]
			best, bestSim := 0, probeGather(lv.plane[:lv.size], idx)/den
			for l := 1; l < lv.k; l++ {
				if sim := probeGather(lv.plane[l*lv.size:(l+1)*lv.size], idx) / den; sim > bestSim {
					best, bestSim = l, sim
				}
			}
			enc[j] = best
		}
	} else {
		for j, t := range s.tables {
			best, bestSim := 0, t.ProbeSim(row, 0)
			for l := 1; l < t.K(); l++ {
				if sim := t.ProbeSim(row, l); sim > bestSim {
					best, bestSim = l, sim
				}
			}
			enc[j] = best
		}
	}
	var thetaSum float64
	for _, th := range s.Theta {
		thetaSum += th
	}
	best, bestD := 0, math.Inf(1)
	for l, mode := range s.Modes {
		var d float64
		for j, e := range enc {
			if e != mode[j] {
				d += s.Theta[j]
			}
		}
		if d < bestD {
			best, bestD = l, d
		}
	}
	sim := 1.0
	if thetaSum > 0 {
		sim = 1 - bestD/thetaSum
	}
	return Assignment{Cluster: best, Similarity: sim, Encoding: enc}, nil
}

// Assigner is a reusable assignment scratch bound to one Snapshot: its
// Assign replays exactly Snapshot.Assign but writes the reconstructed
// encoding into a buffer owned by the Assigner, so the steady-state path
// performs zero allocations per call (asserted by testing.AllocsPerRun in
// the package tests, surfaced by BenchmarkServerAssign). The price of zero
// allocs is aliasing: the returned Assignment.Encoding points into the
// scratch and is valid only until the next Assign or Bind. An Assigner is
// NOT safe for concurrent use — give each goroutine its own (internal/server
// keeps them in a sync.Pool); the zero value is usable after Bind.
type Assigner struct {
	snap *Snapshot
	enc  []int
	idx  []int // packed probe-index scratch for the plan fast path
}

// NewAssigner returns an Assigner bound to the snapshot.
func (s *Snapshot) NewAssigner() *Assigner {
	a := &Assigner{}
	a.Bind(s)
	return a
}

// Bind points the assigner at snap, growing the scratches only when snap has
// more granularity levels (or features, for the packed probe index) than any
// snapshot bound before — rebinding across hot swaps of same-shaped models
// allocates nothing.
func (a *Assigner) Bind(s *Snapshot) {
	a.snap = s
	if cap(a.enc) < len(s.tables) {
		a.enc = make([]int, len(s.tables))
	}
	a.enc = a.enc[:len(s.tables)]
	if cap(a.idx) < len(s.Cardinalities) {
		a.idx = make([]int, 0, len(s.Cardinalities))
	}
	a.idx = a.idx[:0]
}

// Unbind drops the assigner's snapshot reference while keeping its scratch,
// so a pooled assigner does not pin a retired model in memory between
// requests (the serving daemon unbinds before returning one to its pool).
func (a *Assigner) Unbind() { a.snap = nil }

// Assign places one row under the bound snapshot. See the type comment for
// the Encoding aliasing contract.
func (a *Assigner) Assign(row []int) (Assignment, error) {
	if a.snap == nil {
		return Assignment{}, errors.New("model: assigner not bound to a snapshot")
	}
	if a.snap.tables == nil {
		return Assignment{}, errors.New("model: snapshot not initialized (obtain it via Build or Load)")
	}
	return a.snap.assignInto(row, a.enc, a.idx)
}

// AssignBatch assigns every row, fanning the independent per-row probes out
// over at most `workers` goroutines (≤ 0 → GOMAXPROCS) through
// internal/parallel. Each chunk writes only its own result slots and every
// assignment is a pure function of the frozen snapshot, so the output is
// bit-for-bit identical at any parallelism level. All per-row encodings are
// carved out of one backing block (full slices, so appending to one cannot
// clobber a neighbour), which keeps the fan-out at O(1) allocations per
// batch instead of one per row.
func (s *Snapshot) AssignBatch(rows [][]int, workers int) ([]Assignment, error) {
	if s.tables == nil {
		return nil, errors.New("model: snapshot not initialized (obtain it via Build or Load)")
	}
	out := make([]Assignment, len(rows))
	sigma := len(s.tables)
	block := make([]int, len(rows)*sigma)
	err := parallel.ForEachChunk(parallel.Gate(workers, len(rows)*len(s.Cardinalities)*sigma), len(rows),
		func(lo, hi int) error {
			idx := make([]int, 0, len(s.Cardinalities)) // one probe scratch per chunk
			for i := lo; i < hi; i++ {
				a, err := s.assignInto(rows[i], block[i*sigma:(i+1)*sigma:(i+1)*sigma], idx)
				if err != nil {
					return fmt.Errorf("row %d: %w", i, err)
				}
				out[i] = a
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Save writes the snapshot to w in the versioned envelope format.
func (s *Snapshot) Save(w io.Writer) error {
	return writeEnvelope(w, kindModel, s)
}

// SaveFile atomically writes the snapshot to path (see WriteFileAtomic), so
// a serving daemon never observes a half-written model.
func (s *Snapshot) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// Load reads a model snapshot from r, verifying magic, kind, and format
// version, and validates it ready for serving.
func Load(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := readEnvelope(r, kindModel, &s); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a model snapshot from a file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("model: load %s: %w", path, err)
	}
	return s, nil
}

// WriteFileAtomic writes data to path via a temporary file and a rename, so
// readers (and a restart after a crash) only ever observe complete files.
// Model snapshots, session checkpoints and shipped replicas all go through
// it; the temporary file is removed on failure.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("model: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// writeEnvelope frames a gob payload as magic + kind + version + gob.
func writeEnvelope(w io.Writer, kind byte, payload any) error {
	if _, err := w.Write(magic); err != nil {
		return fmt.Errorf("model: write header: %w", err)
	}
	if _, err := w.Write([]byte{kind, FormatVersion}); err != nil {
		return fmt.Errorf("model: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(payload); err != nil {
		return fmt.Errorf("model: encode snapshot: %w", err)
	}
	return nil
}

// readEnvelope verifies the header and decodes the gob payload. The version
// check runs before any gob decoding, so an incompatible file reports a
// *VersionError instead of a confusing decode failure.
func readEnvelope(r io.Reader, kind byte, payload any) error {
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		// A short file is "not a snapshot"; any other read failure is a real
		// I/O error and must surface as such, not as a corruption verdict.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrNotSnapshot
		}
		return fmt.Errorf("model: read snapshot header: %w", err)
	}
	for i := range magic {
		if hdr[i] != magic[i] {
			return ErrNotSnapshot
		}
	}
	gotKind, gotVersion := hdr[len(magic)], int(hdr[len(magic)+1])
	if gotVersion != FormatVersion {
		return &VersionError{Got: gotVersion, Want: FormatVersion}
	}
	if gotKind != kind {
		return fmt.Errorf("model: file holds a %s snapshot, expected %s", kindName(gotKind), kindName(kind))
	}
	if err := gob.NewDecoder(r).Decode(payload); err != nil {
		return fmt.Errorf("model: decode snapshot: %w", err)
	}
	return nil
}
