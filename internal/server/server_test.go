package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcdc/internal/core"
	"mcdc/internal/datasets"
	"mcdc/internal/model"
)

// trainModel trains a snapshot on separable synthetic data and returns it
// with the training rows and their labels.
func trainModel(t *testing.T, n, d, k int, seed int64) (*model.Snapshot, [][]int, []int) {
	t.Helper()
	ds := datasets.Synthetic("m", n, d, k, 0.9, rand.New(rand.NewSource(seed)))
	res, err := core.RunMCDC(ds.Rows, ds.Cardinalities(), core.MCDCConfig{
		MGCPL: core.MGCPLConfig{Rand: rand.New(rand.NewSource(seed))},
		CAME:  core.CAMEConfig{K: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := model.Build(ds.Rows, ds.Cardinalities(), res.Encoding, res.CAME.Modes, res.CAME.Theta, res.MGCPL.Kappa(), k)
	if err != nil {
		t.Fatal(err)
	}
	return snap, ds.Rows, res.Labels
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeMatchesInProcess pins the acceptance criterion end to end: a
// model saved to disk, loaded over POST /models, and queried over HTTP
// returns the same labels as the in-process pipeline.
func TestServeMatchesInProcess(t *testing.T) {
	snap, rows, labels := trainModel(t, 300, 8, 3, 42)
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	resp, data := post(t, ts.URL+"/models", map[string]string{"name": "m", "path": path})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load model: %d %s", resp.StatusCode, data)
	}

	for i, row := range rows[:50] {
		resp, data := post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign: %d %s", resp.StatusCode, data)
		}
		var a assignResponse
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		if a.Cluster != labels[i] {
			t.Fatalf("row %d: HTTP assigned %d, in-process %d", i, a.Cluster, labels[i])
		}
	}

	// Batch path returns identical labels, in order.
	resp, data = post(t, ts.URL+"/assign/batch", map[string]any{"model": "m", "rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	var batch batchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Assignments) != len(rows) {
		t.Fatalf("batch returned %d assignments for %d rows", len(batch.Assignments), len(rows))
	}
	for i, a := range batch.Assignments {
		if a.Cluster != labels[i] {
			t.Fatalf("batch row %d: %d vs %d", i, a.Cluster, labels[i])
		}
	}
}

// TestConcurrentAssign hammers /assign from 12 goroutines (stateless and
// session traffic mixed) while a re-learn hot-swap runs; run under -race in
// CI, it is the concurrency acceptance gate.
func TestConcurrentAssign(t *testing.T) {
	snap, rows, labels := trainModel(t, 400, 8, 3, 7)
	s, ts := newTestServer(t, Config{RelearnMin: 100})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		resp, data := post(t, ts.URL+"/sessions", map[string]any{"session": fmt.Sprintf("s%d", i), "model": "m", "seed": int64(i + 1)})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create session: %d %s", resp.StatusCode, data)
		}
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				row := rows[(g*40+i)%len(rows)]
				var body map[string]any
				if g%3 == 2 { // a third of the goroutines drive sessions
					body = map[string]any{"session": fmt.Sprintf("s%d", g%4), "row": row}
				} else {
					body = map[string]any{"model": "m", "row": row}
				}
				raw, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+"/assign", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: %d %s", g, resp.StatusCode, data)
					return
				}
				var a assignResponse
				if err := json.Unmarshal(data, &a); err != nil {
					errs <- err
					return
				}
				if g%3 != 2 && a.Cluster != labels[(g*40+i)%len(rows)] {
					errs <- fmt.Errorf("goroutine %d row %d: cluster %d, want %d", g, i, a.Cluster, labels[(g*40+i)%len(rows)])
					return
				}
			}
		}(g)
	}
	// Concurrent hot-swap: re-learn from the traffic buffer mid-hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RelearnNow()
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRelearnSwapsEpochAtomically drives traffic into the buffer, triggers a
// re-learn, and checks the swap bumped the epoch without 5xx-ing readers.
func TestRelearnSwapsEpochAtomically(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 11)
	s, ts := newTestServer(t, Config{RelearnMin: 50, Seed: 3})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts.URL+"/assign/batch", map[string]any{"model": "m", "rows": rows[:120]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	if swapped := s.RelearnNow(); swapped != 1 {
		t.Fatalf("re-learn swapped %d models, want 1", swapped)
	}
	resp, data = post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": rows[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign after swap: %d %s", resp.StatusCode, data)
	}
	var a assignResponse
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.Epoch != 1 {
		t.Fatalf("epoch after swap = %d, want 1", a.Epoch)
	}
	// Below the minimum: no further swap.
	if swapped := s.RelearnNow(); swapped != 0 {
		t.Fatalf("idle re-learn swapped %d models", swapped)
	}
}

func TestModelLifecycleAndErrors(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 5)
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	// Assign against a missing model.
	resp, _ := post(t, ts.URL+"/assign", map[string]any{"model": "ghost", "row": rows[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing model: %d", resp.StatusCode)
	}
	// Load (201: resource created), list, hot-swap (200: replaced), delete.
	resp, data := post(t, ts.URL+"/models", map[string]string{"name": "m", "path": path})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d %s", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/models")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"name":"m"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, data)
	}
	resp, _ = post(t, ts.URL+"/models", map[string]string{"name": "m", "path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot-swap reload: %d", resp.StatusCode)
	}
	// Bad requests.
	resp, _ = post(t, ts.URL+"/models", map[string]string{"name": "bad/name", "path": path})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/models", map[string]string{"name": "x", "path": filepath.Join(t.TempDir(), "nope.bin")})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing file: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short row: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/assign", map[string]any{"row": rows[0]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no target: %d", resp.StatusCode)
	}
	// Delete and confirm gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/models/m", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": rows[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted model still serves: %d", resp.StatusCode)
	}
}

func TestSessionsAreDeterministicPerSeed(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 9)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	feed := func(id string) []assignResponse {
		resp, data := post(t, ts.URL+"/sessions", map[string]any{"session": id, "model": "m", "window": 50, "seed": 17})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, data)
		}
		var out []assignResponse
		for _, row := range rows[:120] {
			resp, data := post(t, ts.URL+"/assign", map[string]any{"session": id, "row": row})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("assign %s: %d %s", id, resp.StatusCode, data)
			}
			var a assignResponse
			if err := json.Unmarshal(data, &a); err != nil {
				t.Fatal(err)
			}
			out = append(out, a)
		}
		return out
	}
	a, b := feed("alpha"), feed("beta")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sessions with identical seeds and input diverged")
	}
	// Duplicate session id → conflict.
	resp, _ := post(t, ts.URL+"/sessions", map[string]any{"session": "alpha", "model": "m"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate session: %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 13)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": rows[0]})

	resp, data := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status string         `json:"status"`
		Models map[string]int `json:"models"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
	if _, ok := h.Models["m"]; !ok {
		t.Fatalf("healthz models: %v", h.Models)
	}

	resp, data = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"mcdcd_assign_total 1",
		`mcdcd_model_epoch{model="m"} 0`,
		"mcdcd_assign_latency_seconds_count 1",
		"mcdcd_relearn_total 0",
		"mcdcd_session_drift_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestTrafficBufferRestore pins the failed-re-learn recovery path: a taken
// window goes back into the buffer without displacing traffic that arrived
// in the meantime.
func TestTrafficBufferRestore(t *testing.T) {
	b := newTrafficBuffer(4)
	for i := 1; i <= 3; i++ {
		b.add([]int{i})
	}
	taken := b.take()
	if b.len() != 0 || len(taken) != 3 {
		t.Fatalf("take left %d, returned %d", b.len(), len(taken))
	}
	b.add([]int{4}) // arrives while the (failing) re-learn runs
	b.restore(taken)
	if b.len() != 4 {
		t.Fatalf("restored buffer holds %d rows, want 4", b.len())
	}
	if got := b.take(); !reflect.DeepEqual(got, [][]int{{1}, {2}, {3}, {4}}) {
		t.Fatalf("restored order: %v", got)
	}

	// A wrapped ring must come out in arrival order, not physical order.
	b = newTrafficBuffer(4)
	for i := 1; i <= 6; i++ { // physical slots end up [5 6 3 4]
		b.add([]int{i})
	}
	if got := b.take(); !reflect.DeepEqual(got, [][]int{{3}, {4}, {5}, {6}}) {
		t.Fatalf("wrapped take order: %v", got)
	}

	// Overflow: only the newest restored rows fit in the remaining room.
	b = newTrafficBuffer(4)
	for i := 1; i <= 4; i++ {
		b.add([]int{i})
	}
	taken = b.take()
	b.add([]int{5})
	b.add([]int{6})
	b.restore(taken)
	if got := b.take(); !reflect.DeepEqual(got, [][]int{{3}, {4}, {5}, {6}}) {
		t.Fatalf("overflow restore: %v", got)
	}
}

// TestHotSwapSchemaChangeClearsBuffer pins the registry invariant: traffic
// buffered under one schema never trains a model with a different one.
func TestHotSwapSchemaChangeClearsBuffer(t *testing.T) {
	snapA, rowsA, _ := trainModel(t, 150, 5, 2, 19)
	snapB, _, _ := trainModel(t, 150, 7, 2, 19) // different feature width
	s, ts := newTestServer(t, Config{RelearnMin: 2})
	if err := s.AddModel("m", snapA); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/assign/batch", map[string]any{"model": "m", "rows": rowsA[:10]})
	sm, _ := s.registry.get("m")
	if sm.buf.len() != 10 {
		t.Fatalf("buffered %d rows, want 10", sm.buf.len())
	}
	// Same-schema swap keeps the window.
	if err := s.AddModel("m", snapA); err != nil {
		t.Fatal(err)
	}
	if sm.buf.len() != 10 {
		t.Fatalf("same-schema swap cleared the buffer (%d rows)", sm.buf.len())
	}
	// Schema-changing swap clears it, and the next sweep must not train the
	// 7-feature model on 5-feature rows.
	if err := s.AddModel("m", snapB); err != nil {
		t.Fatal(err)
	}
	if sm.buf.len() != 0 {
		t.Fatalf("schema-changing swap kept %d stale rows", sm.buf.len())
	}
	if swapped := s.RelearnNow(); swapped != 0 {
		t.Fatalf("re-learn ran on an empty window (%d swaps)", swapped)
	}
}

// TestPoisonRowDoesNotReachRelearn pins the domain gate on the traffic
// buffer: /assign tolerates out-of-domain values, but they must never enter
// the training window (similarity tables index by value code).
func TestPoisonRowDoesNotReachRelearn(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 17)
	s, ts := newTestServer(t, Config{RelearnMin: 2, Seed: 5})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	poison := []int{99, -3, 0, 1, 2}
	resp, data := post(t, ts.URL+"/assign", map[string]any{"model": "m", "row": poison})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poison assign rejected: %d %s", resp.StatusCode, data)
	}
	sm, _ := s.registry.get("m")
	if n := sm.buf.len(); n != 0 {
		t.Fatalf("poison row entered the training buffer (%d rows)", n)
	}
	// Clean traffic buffers and re-learns without panicking.
	post(t, ts.URL+"/assign/batch", map[string]any{"model": "m", "rows": rows[:10]})
	if sm.buf.len() != 10 {
		t.Fatalf("clean rows not buffered: %d", sm.buf.len())
	}
	if swapped := s.RelearnNow(); swapped != 1 {
		t.Fatalf("re-learn swapped %d models, want 1", swapped)
	}
}

// TestSessionRejectsOutOfDomainRow pins the domain gate on the session
// route: a value outside the model's domain answers 400 bad_request instead
// of entering the session's window (where the next relearn used to panic),
// and the session keeps answering exactly like one that never saw it.
func TestSessionRejectsOutOfDomainRow(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 17)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"clean", "poisoned"} {
		if resp, data := post(t, ts.URL+"/v1/sessions", map[string]any{"session": id, "model": "m", "window": 20, "seed": 3}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, data)
		}
	}
	assign := func(id string, row []int) assignResponse {
		t.Helper()
		resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"session": id, "row": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign %s %v: %d %s", id, row, resp.StatusCode, data)
		}
		var a assignResponse
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	poison := [][]int{{99, 0, 0, 0, 0}, {0, -3, 0, 0, 0}, {0, 0, snap.Cardinalities[2], 0, 0}}
	for i, row := range rows[:60] {
		if i%10 == 5 {
			bad := poison[(i/10)%len(poison)]
			resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"session": "poisoned", "row": bad})
			var env errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &env) != nil || env.Code != codeBadRequest {
				t.Fatalf("out-of-domain row %v: %d %s, want 400 %q", bad, resp.StatusCode, data, codeBadRequest)
			}
		}
		want, got := assign("clean", row), assign("poisoned", row)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival %d: poisoned session answered %+v, clean %+v", i, got, want)
		}
		if i == 59 && got.Epoch < 2 {
			t.Fatalf("session relearned %d times: the rejected rows never met a relearn", got.Epoch)
		}
	}
}

// TestBatchDeterministicAcrossWorkers pins the /assign/batch determinism
// contract: one server configured sequential and one parallel return
// byte-identical assignment sequences.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 8, 3, 21)
	run := func(workers int) batchResponse {
		s, ts := newTestServer(t, Config{Workers: workers})
		if err := s.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, ts.URL+"/assign/batch", map[string]any{"model": "m", "rows": rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch workers=%d: %d %s", workers, resp.StatusCode, data)
		}
		var b batchResponse
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !reflect.DeepEqual(run(1), run(0)) {
		t.Fatal("batch assignment differs between workers=1 and workers=GOMAXPROCS")
	}
}
