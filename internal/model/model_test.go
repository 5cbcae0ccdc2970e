package model

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mcdc/internal/core"
	"mcdc/internal/datasets"
)

// trainSnapshot runs the full MCDC pipeline on a separable synthetic set and
// freezes it.
func trainSnapshot(t *testing.T, n, d, k int, seed int64) (*Snapshot, *core.MCDCResult, [][]int) {
	t.Helper()
	ds := datasets.Synthetic("train", n, d, k, 0.9, rand.New(rand.NewSource(seed)))
	res, err := core.RunMCDC(ds.Rows, ds.Cardinalities(), core.MCDCConfig{
		MGCPL: core.MGCPLConfig{Rand: rand.New(rand.NewSource(seed))},
		CAME:  core.CAMEConfig{K: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Build(ds.Rows, ds.Cardinalities(), res.Encoding, res.CAME.Modes, res.CAME.Theta, res.MGCPL.Kappa(), k)
	if err != nil {
		t.Fatal(err)
	}
	return snap, res, ds.Rows
}

// TestAssignReproducesTraining pins the serving contract: on well-separated
// training data, Assign returns exactly the labels Cluster() produced.
func TestAssignReproducesTraining(t *testing.T) {
	snap, res, rows := trainSnapshot(t, 400, 8, 3, 7)
	for i, row := range rows {
		a, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cluster != res.Labels[i] {
			t.Fatalf("row %d: model assigned %d, training labeled %d", i, a.Cluster, res.Labels[i])
		}
		if a.Similarity < 0 || a.Similarity > 1 {
			t.Fatalf("row %d: similarity %v outside [0,1]", i, a.Similarity)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	snap, _, rows := trainSnapshot(t, 300, 6, 3, 11)
	snap.Name = "round-trip"
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "round-trip" || loaded.K != snap.K || loaded.TrainN != snap.TrainN {
		t.Fatalf("metadata changed across round-trip: %+v", loaded)
	}
	if !reflect.DeepEqual(loaded.Kappa, snap.Kappa) || !reflect.DeepEqual(loaded.Theta, snap.Theta) {
		t.Fatal("kappa/theta changed across round-trip")
	}
	// Bit-stability: the loaded model must assign identically to the source.
	for _, row := range rows {
		want, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("assignment diverged after round-trip: %+v vs %+v", want, got)
		}
	}
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	snap, _, _ := trainSnapshot(t, 200, 5, 2, 3)
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of the file — a torn write that escaped the rename
	// discipline, or a truncated copy — fails with an error, never a panic or
	// a partial model.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if got, err := Load(bytes.NewReader(raw[:n])); err == nil || got != nil {
			t.Fatalf("%d-byte prefix of a %d-byte snapshot loaded (err %v)", n, len(raw), err)
		}
	}
	// A failed rename (the target is a directory) removes the temp file.
	dir := t.TempDir()
	if err := snap.SaveFile(dir); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after a failed rename")
	}
}

func TestLoadRejectsGarbageAndVersions(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err != ErrNotSnapshot {
		t.Fatalf("garbage: got %v, want ErrNotSnapshot", err)
	}
	if _, err := Load(bytes.NewReader([]byte("MC"))); err != ErrNotSnapshot {
		t.Fatalf("truncated: got %v, want ErrNotSnapshot", err)
	}

	snap, _, _ := trainSnapshot(t, 100, 4, 2, 5)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip the version byte: must fail with a VersionError before any gob
	// decoding happens.
	bad := append([]byte(nil), raw...)
	bad[len(magic)+1] = FormatVersion + 1
	var verr *VersionError
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	} else if !errors.As(err, &verr) {
		t.Fatalf("future version: got %v, want *VersionError", err)
	} else if verr.Got != FormatVersion+1 || verr.Want != FormatVersion {
		t.Fatalf("version error carries %+v", verr)
	}

	// Wrong kind: a stream checkpoint is not a model.
	bad = append([]byte(nil), raw...)
	bad[len(magic)] = kindStream
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong kind accepted")
	}

	// Older formats must be refused with a VersionError, never handed to
	// gob: v1 predates OwnerEpoch and the replay cache, a v2 stream
	// checkpoint's RandSeed would resume on a different random stream, and a
	// v3 payload is gzip-compressed.
	for _, old := range []byte{1, 2, 3} {
		bad = append([]byte(nil), raw...)
		bad[len(magic)+1] = old
		verr = nil
		if _, err := Load(bytes.NewReader(bad)); !errors.As(err, &verr) {
			t.Fatalf("v%d snapshot: got %v, want *VersionError", old, err)
		} else if verr.Got != int(old) || verr.Want != FormatVersion {
			t.Fatalf("v%d version error carries %+v", old, verr)
		}
	}
}

func TestAssignValidation(t *testing.T) {
	snap, _, _ := trainSnapshot(t, 100, 4, 2, 9)
	if _, err := snap.Assign([]int{0}); err == nil {
		t.Fatal("wrong row width accepted")
	}
	var raw Snapshot // never went through Build/Load
	if _, err := raw.Assign(make([]int, 0)); err == nil {
		t.Fatal("uninitialized snapshot served an assignment")
	}
	// Out-of-domain values are tolerated (treated as no-match, not a crash).
	a, err := snap.Assign([]int{99, -1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cluster < 0 || a.Cluster >= snap.K {
		t.Fatalf("out-of-domain row landed in cluster %d of %d", a.Cluster, snap.K)
	}
}

// TestAssignBatchParallelEquivalence pins the determinism contract for the
// serving fan-out: batch assignment is bit-for-bit identical at any
// parallelism level and matches the one-by-one path.
func TestAssignBatchParallelEquivalence(t *testing.T) {
	snap, _, rows := trainSnapshot(t, 500, 8, 3, 13)
	seq, err := snap.AssignBatch(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		par, err := snap.AssignBatch(rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged from sequential batch", workers)
		}
	}
	for i, row := range rows {
		one, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, seq[i]) {
			t.Fatalf("row %d: batch %+v vs single %+v", i, seq[i], one)
		}
	}
}

func TestFromLabelsFlatModel(t *testing.T) {
	ds := datasets.Synthetic("flat", 300, 6, 3, 0.9, rand.New(rand.NewSource(21)))
	snap, err := FromLabels(ds.Rows, ds.Cardinalities(), ds.Labels, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, row := range ds.Rows {
		a, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cluster == ds.Labels[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(ds.Rows)); frac < 0.95 {
		t.Fatalf("flat model agreement %v on separable data, want ≥ 0.95", frac)
	}
}

func TestBuildValidation(t *testing.T) {
	rows := [][]int{{0, 1}, {1, 0}}
	card := []int{2, 2}
	if _, err := Build(nil, card, nil, nil, nil, nil, 1); err == nil {
		t.Fatal("empty build accepted")
	}
	if _, err := Build(rows, card, [][]int{{0}, {1}}, [][]int{{0}}, []float64{1}, nil, 2); err == nil {
		t.Fatal("mode count ≠ k accepted")
	}
	if _, err := Build(rows, card, [][]int{{0}, {1}}, [][]int{{0}, {1, 1}}, []float64{1}, nil, 2); err == nil {
		t.Fatal("ragged mode accepted")
	}
	if _, err := Build(rows, card, [][]int{{0, 0}, {1, 1}}, [][]int{{0}, {1}}, []float64{1}, nil, 2); err == nil {
		t.Fatal("encoding/theta width mismatch accepted")
	}
}

// TestBuildSharesOneIndex checks that every level table of a built snapshot
// counts over one index of the training rows: a level that indexed the rows
// again would hold a second copy of their term-row offsets.
func TestBuildSharesOneIndex(t *testing.T) {
	snap, res, rows := trainSnapshot(t, 300, 6, 3, 5)
	if len(snap.tables) != len(res.Encoding[0]) || len(snap.tables) < 2 {
		t.Fatalf("%d level tables for %d encoding columns, want at least 2", len(snap.tables), len(res.Encoding[0]))
	}
	ix := snap.tables[0].Index()
	if ix == nil || ix.N() != len(rows) {
		t.Fatalf("level 0 counts over an index of %v rows, want %d", ix, len(rows))
	}
	for j, tb := range snap.tables {
		if tb.Index() != ix {
			t.Fatalf("level %d counts over its own index", j)
		}
	}
}

// TestThetaKeepsSimilarityFinite pins the level weights Build and Load
// accept to those every similarity can be computed from: an infinite weight,
// or weights whose sum overflows, would make 1 − bestD/Σθ NaN for a row that
// misses its mode, and JSON cannot carry a NaN. Weights that sum to exactly
// the largest float64 still serve, with similarities in [0, 1].
func TestThetaKeepsSimilarityFinite(t *testing.T) {
	rows := [][]int{{0, 0}, {1, 1}}
	card := []int{2, 2}
	enc := [][]int{{0, 0}, {1, 1}}
	modes := [][]int{{0, 0}}
	good, err := Build(rows, card, enc, modes, []float64{1, 1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range [][]float64{
		{math.Inf(1), 1},
		{math.MaxFloat64, math.MaxFloat64},
		{math.Inf(-1), 1},
		{math.NaN(), 1},
	} {
		if _, err := Build(rows, card, enc, modes, theta, nil, 1); err == nil {
			t.Errorf("Build accepted theta %v", theta)
		}
		bad := *good
		bad.Theta = theta
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("Load accepted theta %v", theta)
		}
	}
	edge, err := Build(rows, card, enc, modes, []float64{math.MaxFloat64 / 2, math.MaxFloat64 / 2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]int{{0, 0}, {1, 1}, {1, 0}} {
		a, err := edge.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if !(a.Similarity >= 0 && a.Similarity <= 1) {
			t.Errorf("row %v: similarity %v", row, a.Similarity)
		}
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	st := &StreamState{
		Cardinalities: []int{2, 3},
		WindowSize:    4,
		RefreshEvery:  4,
		Window:        [][]int{{0, 1}, {1, 2}},
		Next:          0,
		K:             2,
		Epoch:         3,
		Kappa:         []int{5, 2},
		RandSeed:      42,
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("stream state changed across round-trip:\n%+v\n%+v", st, got)
	}
	// Every proper prefix fails to load: a truncated checkpoint must never
	// resume a session from partial state.
	raw := buf.Bytes()
	for n := 0; n < len(raw); n++ {
		if got, err := LoadStream(bytes.NewReader(raw[:n])); err == nil || got != nil {
			t.Fatalf("%d-byte prefix of a %d-byte checkpoint loaded (err %v)", n, len(raw), err)
		}
	}
	// A model file is not a stream checkpoint.
	snap, _, _ := trainSnapshot(t, 100, 4, 2, 5)
	buf.Reset()
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStream(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("model snapshot accepted as stream checkpoint")
	}
}

// TestAssignerMatchesAssign pins the scratch path against the allocating
// path row by row (cluster, similarity, and encoding values), and the
// aliasing contract: the returned encoding lives in the assigner's scratch.
func TestAssignerMatchesAssign(t *testing.T) {
	snap, _, rows := trainSnapshot(t, 300, 7, 3, 13)
	a := snap.NewAssigner()
	var prev []int
	for i, row := range rows {
		want, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cluster != want.Cluster || got.Similarity != want.Similarity {
			t.Fatalf("row %d: assigner (%d, %v) vs snapshot (%d, %v)", i, got.Cluster, got.Similarity, want.Cluster, want.Similarity)
		}
		if !reflect.DeepEqual(got.Encoding, want.Encoding) {
			t.Fatalf("row %d: assigner encoding %v vs %v", i, got.Encoding, want.Encoding)
		}
		if prev != nil && &got.Encoding[0] != &prev[0] {
			t.Fatal("assigner did not reuse its scratch encoding")
		}
		prev = got.Encoding
	}
}

// TestAssignerZeroAllocs is the allocation gate of the serving hot path: a
// bound Assigner must assign in 0 allocs/op at steady state.
func TestAssignerZeroAllocs(t *testing.T) {
	snap, _, rows := trainSnapshot(t, 200, 6, 3, 17)
	a := snap.NewAssigner()
	row := rows[0]
	if _, err := a.Assign(row); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Assign(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Assigner.Assign allocates %v/op at steady state, want 0", allocs)
	}
	// Rebinding to the same-shaped snapshot must not allocate either (the
	// serving daemon rebinds a pooled assigner on every request).
	allocs = testing.AllocsPerRun(200, func() {
		a.Bind(snap)
		if _, err := a.Assign(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Bind+Assign allocates %v/op at steady state, want 0", allocs)
	}
}

// TestAssignerValidation mirrors Assign's error cases on the scratch path.
func TestAssignerValidation(t *testing.T) {
	var unbound Assigner
	if _, err := unbound.Assign([]int{0}); err == nil {
		t.Error("unbound assigner: want error")
	}
	snap, _, _ := trainSnapshot(t, 120, 5, 2, 19)
	a := snap.NewAssigner()
	if _, err := a.Assign([]int{0, 1}); err == nil {
		t.Error("short row: want error")
	}
}

// TestAssignBatchEncodingsIndependent pins the block-carved encodings: they
// must equal the per-row path and appending to one must not clobber its
// neighbour.
func TestAssignBatchEncodingsIndependent(t *testing.T) {
	snap, _, rows := trainSnapshot(t, 150, 6, 3, 23)
	batch, err := snap.AssignBatch(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want, err := snap.Assign(row)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Encoding, want.Encoding) {
			t.Fatalf("row %d: batch encoding %v vs %v", i, batch[i].Encoding, want.Encoding)
		}
	}
	before := append([]int(nil), batch[1].Encoding...)
	_ = append(batch[0].Encoding, 99) // full slice: must reallocate, not spill
	if !reflect.DeepEqual(batch[1].Encoding, before) {
		t.Fatal("appending to one batch encoding clobbered its neighbour")
	}
}
