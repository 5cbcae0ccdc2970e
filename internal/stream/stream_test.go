package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/core"
	"mcdc/internal/datasets"
	"mcdc/internal/model"
)

func streamConfig(card []int, window int, seed int64) Config {
	return Config{
		Cardinalities: card,
		WindowSize:    window,
		MGCPL:         core.MGCPLConfig{Rand: rand.New(rand.NewSource(seed))},
	}
}

func TestStationaryStreamStabilizes(t *testing.T) {
	ds := datasets.Synthetic("t", 1200, 8, 3, 0.9, rand.New(rand.NewSource(60)))
	c, err := NewClusterer(streamConfig(ds.Cardinalities(), 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	var lastEpoch int
	for i, row := range ds.Rows {
		a, err := c.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(ds.Rows)-1 {
			lastEpoch = a.ModelEpoch
		}
	}
	if lastEpoch == 0 {
		t.Fatal("model never learned")
	}
	if k := c.K(); k < 2 || k > 6 {
		t.Errorf("model k = %d, want near the 3 planted clusters (kappa %v)", k, c.Kappa())
	}
	// After the model settles, same-cluster objects should be assigned
	// together: feed a fresh batch from the same distribution and check
	// that assignments align with the planted labels.
	fresh := datasets.Synthetic("t", 300, 8, 3, 0.9, rand.New(rand.NewSource(60)))
	agreement := make(map[[2]int]int)
	for i, row := range fresh.Rows {
		a, err := c.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		agreement[[2]int{fresh.Labels[i], a.Cluster}]++
	}
	correct := 0
	for truth := 0; truth < 3; truth++ {
		best := 0
		for key, cnt := range agreement {
			if key[0] == truth && cnt > best {
				best = cnt
			}
		}
		correct += best
	}
	if frac := float64(correct) / float64(fresh.N()); frac < 0.75 {
		t.Errorf("online assignment agreement = %v, want ≥ 0.75", frac)
	}
}

func TestDriftTriggersRelearn(t *testing.T) {
	rngA := rand.New(rand.NewSource(61))
	phaseA := datasets.Synthetic("a", 400, 8, 2, 0.9, rngA)
	c, err := NewClusterer(streamConfig(phaseA.Cardinalities(), 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range phaseA.Rows {
		if _, err := c.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	epochAfterA := c.ModelEpoch()
	if epochAfterA == 0 {
		t.Fatal("phase A never learned a model")
	}
	// Phase B: a completely different distribution (different dominant
	// values). The drift detector must force a re-learning well before the
	// periodic refresh interval would.
	phaseB := datasets.Synthetic("b", 400, 8, 4, 0.9, rand.New(rand.NewSource(987)))
	relearned := false
	for _, row := range phaseB.Rows {
		a, err := c.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		if a.ModelEpoch > epochAfterA {
			relearned = true
			break
		}
	}
	if !relearned {
		t.Error("distribution shift did not trigger a model refresh")
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := NewClusterer(Config{}); err == nil {
		t.Error("missing cardinalities: want error")
	}
	if _, err := NewClusterer(Config{Cardinalities: []int{2}}); err == nil {
		t.Error("missing rand: want error")
	}
	c, err := NewClusterer(streamConfig([]int{2, 2}, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add([]int{0}); err == nil {
		t.Error("wrong row width: want error")
	}
}

// TestAddRejectsOutOfDomain pins the domain gate on Add. Each rejected value
// used to poison the stream once it sat in the window: 99, -3 and feature
// 1's 3 index past the count tables and panicked the next relearn, and
// feature 0's 2 and 5 landed in its padding or aliased into feature 1's
// cells (stride 3). A rejected row must leave the window, the drift counters
// and every later answer exactly as if it had never arrived.
func TestAddRejectsOutOfDomain(t *testing.T) {
	card := []int{2, 3}
	clean, err := NewClusterer(streamConfig(card, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := NewClusterer(streamConfig(card, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]int{{99, 0}, {0, -3}, {0, 3}, {2, 0}, {5, 0}}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		if i%4 == 0 {
			b := bad[(i/4)%len(bad)]
			if _, err := poisoned.Add(b); err == nil {
				t.Fatalf("row %v outside cardinalities %v accepted", b, card)
			}
		}
		row := []int{rng.Intn(2), rng.Intn(3)}
		if i%7 == 0 {
			row[rng.Intn(2)] = categorical.Missing
		}
		want, err := clean.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := poisoned.Add(row)
		if err != nil {
			t.Fatalf("arrival %d %v after a rejected row: %v", i, row, err)
		}
		if got != want {
			t.Fatalf("arrival %d: answer %+v after rejected rows, want %+v", i, got, want)
		}
	}
	if clean.ModelEpoch() < 2 {
		t.Fatalf("only %d relearns: the rejected rows never met one", clean.ModelEpoch())
	}
	if !reflect.DeepEqual(poisoned.Snapshot(), clean.Snapshot()) {
		t.Fatal("rejected rows changed the window, counters, or model")
	}
}

// TestDriftRefreshAtRingBoundary engineers a drift-triggered re-learning on
// the exact arrival whose ring overwrite wraps the cursor back to slot 0, and
// checks the re-learned model saw the fully-wrapped window (all drift rows,
// none of the stale phase-A rows). The schedule is derived from the drift
// rule: after the provisional model (epoch 1) forms at arrival 2, six
// in-distribution arrivals fill the ring (cursor at 0), and eight
// out-of-distribution arrivals overwrite slots 0..7; with DriftFraction
// 0.55 the ratio first crosses at drifted/sinceFresh = 8/14 ≈ 0.571 — the
// wrap arrival.
func TestDriftRefreshAtRingBoundary(t *testing.T) {
	card := []int{4, 4, 4}
	cfg := Config{
		Cardinalities: card,
		WindowSize:    8,
		RefreshEvery:  100,
		DriftFraction: 0.55,
		MGCPL:         core.MGCPLConfig{Rand: rand.New(rand.NewSource(9))},
	}
	c, err := NewClusterer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainRows := [][]int{{0, 0, 0}, {1, 1, 1}}
	// Drift rows use value codes {2,3} on every feature: zero overlap with
	// the model's frequencies, so each scores similarity 0 (< threshold).
	driftRows := [][]int{
		{2, 2, 2}, {2, 2, 3}, {2, 3, 2}, {2, 3, 3},
		{3, 2, 2}, {3, 2, 3}, {3, 3, 2}, {3, 3, 3},
	}
	add := func(row []int) Assignment {
		t.Helper()
		a, err := c.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for i := 0; i < 8; i++ { // arrivals 1..8 fill the ring
		add(trainRows[i%2])
	}
	if c.epoch != 1 {
		t.Fatalf("provisional model epoch = %d, want 1", c.epoch)
	}
	if len(c.window) != 8 || c.next != 0 {
		t.Fatalf("ring not at pre-wrap state: len=%d next=%d", len(c.window), c.next)
	}
	var last Assignment
	for i, row := range driftRows { // arrivals 9..16 overwrite slots 0..7
		last = add(row)
		if i < 7 && c.epoch != 1 {
			t.Fatalf("re-learn fired early, at drift arrival %d", i+1)
		}
	}
	if last.ModelEpoch != 2 || c.epoch != 2 {
		t.Fatalf("re-learn did not fire on the wrap arrival: epoch=%d", c.epoch)
	}
	if c.next != 0 {
		t.Fatalf("ring cursor = %d after the wrap arrival, want 0", c.next)
	}
	if !reflect.DeepEqual(c.window, driftRows) {
		t.Fatalf("re-learn window is not the wrapped drift rows:\n%v", c.window)
	}
	// The swapped-in model must explain the drift regime, not the old one.
	if sim := c.probeSimBest(driftRows[0]); sim < c.cfg.DriftThreshold {
		t.Fatalf("drift row scores %v under the re-learned model", sim)
	}
}

// probeSimBest returns the best-cluster probe similarity for a row (test
// helper mirroring Add's probe loop without mutating the window).
func (c *Clusterer) probeSimBest(row []int) float64 {
	best := -1.0
	for l := 0; l < c.k; l++ {
		if c.tables.Size(l) == 0 {
			continue
		}
		if s := c.tables.ProbeSim(row, l); s > best {
			best = s
		}
	}
	return best
}

// TestSnapshotRestoreBitIdentical pins the checkpoint contract: after
// Snapshot (which rotates the rng onto a recorded sub-seed), the original
// and a Restore of the serialized state produce bit-for-bit identical
// assignments on any subsequent input — including across re-learnings,
// which consume the (now aligned) random streams.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	ds := datasets.Synthetic("t", 900, 8, 3, 0.9, rand.New(rand.NewSource(77)))
	c, err := NewClusterer(streamConfig(ds.Cardinalities(), 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ds.Rows[:600] {
		if _, err := c.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if c.ModelEpoch() == 0 {
		t.Fatal("no model learned before the checkpoint")
	}

	// Serialize through the real envelope, not just the in-memory state.
	var buf bytes.Buffer
	if err := c.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := model.LoadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.K() != c.K() || r.ModelEpoch() != c.ModelEpoch() || !reflect.DeepEqual(r.Kappa(), c.Kappa()) {
		t.Fatal("restored model state differs from the original")
	}

	epochBefore := c.ModelEpoch()
	for i, row := range ds.Rows[600:] {
		ao, err := c.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := r.Add(row)
		if err != nil {
			t.Fatal(err)
		}
		if ao != ar {
			t.Fatalf("tail row %d: original %+v, restored %+v", i, ao, ar)
		}
	}
	if c.ModelEpoch() == epochBefore {
		t.Fatal("tail did not cross a re-learning; the test lost its teeth")
	}
	if r.ModelEpoch() != c.ModelEpoch() || r.K() != c.K() || !reflect.DeepEqual(r.Kappa(), c.Kappa()) {
		t.Fatal("original and restored clusterers diverged after the tail")
	}
}

// TestSnapshotBeforeFirstModel covers the cold-start checkpoint: no tables
// yet, partial window.
func TestSnapshotBeforeFirstModel(t *testing.T) {
	c, err := NewClusterer(streamConfig([]int{2, 2}, 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Add([]int{i % 2, 0}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	if st.Tables != nil || st.Epoch != 0 {
		t.Fatalf("cold snapshot carries a model: %+v", st)
	}
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.window) != 3 || r.tables != nil {
		t.Fatal("cold restore mismatched")
	}
}

func TestRestoreRejectsMalformedState(t *testing.T) {
	if _, err := Restore(nil); err == nil {
		t.Error("nil state accepted")
	}
	base := func() *model.StreamState {
		return &model.StreamState{
			Cardinalities: []int{2, 2},
			WindowSize:    4,
			RandSeed:      1,
			Window:        [][]int{{0, 1}, {1, 0}},
		}
	}
	st := base()
	st.Window = append(st.Window, []int{0})
	if _, err := Restore(st); err == nil {
		t.Error("ragged window row accepted")
	}
	st = base()
	st.Window[1] = []int{1, 2}
	if _, err := Restore(st); err == nil {
		t.Error("out-of-domain window row accepted")
	}
	st = base()
	st.Window = [][]int{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if _, err := Restore(st); err == nil {
		t.Error("window beyond capacity accepted")
	}
	st = base()
	st.Next = 7
	if _, err := Restore(st); err == nil {
		t.Error("out-of-range cursor accepted")
	}
	// A checkpoint whose claimed k disagrees with its tables must be
	// rejected at Restore time, not panic later in Add.
	c, err := NewClusterer(streamConfig([]int{2, 2}, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Add([]int{i % 2, (i / 2) % 2}); err != nil {
			t.Fatal(err)
		}
	}
	warm := c.Snapshot()
	if warm.Tables == nil {
		t.Fatal("warm snapshot carries no tables")
	}
	warm.K = warm.Tables.K + 1
	if _, err := Restore(warm); err == nil {
		t.Error("k/tables mismatch accepted")
	}
}

func TestWindowEviction(t *testing.T) {
	c, err := NewClusterer(streamConfig([]int{2}, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Add([]int{i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.window) != 4 {
		t.Errorf("window holds %d objects, want 4", len(c.window))
	}
}
