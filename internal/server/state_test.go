package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdc/internal/model"
)

// feedSession posts rows[from:to] to the session and returns the raw
// response bodies (byte-level comparison pins the full wire contract, not
// just the decoded fields).
func feedSession(t *testing.T, url, id string, rows [][]int, from, to int) []string {
	t.Helper()
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		resp, data := post(t, url+"/v1/assign", map[string]any{"session": id, "row": rows[i%len(rows)]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign row %d: %d %s", i, resp.StatusCode, data)
		}
		out = append(out, string(data))
	}
	return out
}

func createSession(t *testing.T, url, id string, window int, seed int64) {
	t.Helper()
	resp, data := post(t, url+"/v1/sessions", map[string]any{"session": id, "model": "m", "window": window, "seed": seed})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session %s: %d %s", id, resp.StatusCode, data)
	}
}

// TestCheckpointRestartResumesBitIdentical is the durability acceptance
// property: a daemon killed after flushing its sessions and restarted from
// -state-dir continues every stream bit-for-bit with an uninterrupted
// in-memory daemon that never checkpoints. The tail covers several
// re-learnings (window 40, 140 tail rows), so the property holds across
// model refreshes, not just between them.
func TestCheckpointRestartResumesBitIdentical(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 6, 3, 23)
	const cut, total, window = 60, 200, 40

	run := func(dir string) (*Server, *httptest.Server) {
		s, err := New(Config{StateDir: dir, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}

	// Uninterrupted reference: in memory, never checkpoints.
	refSrv, refTS := newTestServer(t, Config{})
	if err := refSrv.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, refTS.URL, "alpha", window, 9)
	createSession(t, refTS.URL, "beta", window, 11)
	feedSession(t, refTS.URL, "alpha", rows, 0, cut)
	feedSession(t, refTS.URL, "beta", rows, 0, cut)
	refTailA := feedSession(t, refTS.URL, "alpha", rows, cut, total)
	refTailB := feedSession(t, refTS.URL, "beta", rows, cut, total)

	// Killed run: same prefix, graceful shutdown (flushes the cut), a fresh
	// daemon restores from the state dir and serves the tail.
	killDir := t.TempDir()
	srv1, ts1 := run(killDir)
	if err := srv1.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts1.URL, "alpha", window, 9)
	createSession(t, ts1.URL, "beta", window, 11)
	feedSession(t, ts1.URL, "alpha", rows, 0, cut)
	feedSession(t, ts1.URL, "beta", rows, 0, cut)
	ts1.Close()
	srv1.Close() // graceful shutdown = final checkpoint flush

	srv2, ts2 := run(killDir)
	defer ts2.Close()
	defer srv2.Close()
	// No model re-load needed: sessions are self-contained. The restart must
	// report both sessions live before any traffic touches them.
	if got := srv2.sessions.count(); got != 2 {
		t.Fatalf("restart restored %d sessions, want 2", got)
	}
	if got := srv2.sessions.restored.Load(); got != 2 {
		t.Fatalf("restored counter = %d, want 2", got)
	}
	tailA := feedSession(t, ts2.URL, "alpha", rows, cut, total)
	tailB := feedSession(t, ts2.URL, "beta", rows, cut, total)

	if !reflect.DeepEqual(tailA, refTailA) {
		t.Errorf("session alpha: post-restart tail diverged from the uninterrupted run")
	}
	if !reflect.DeepEqual(tailB, refTailB) {
		t.Errorf("session beta: post-restart tail diverged from the uninterrupted run")
	}
	// The tail must include at least one re-learning for the property to
	// mean anything across refreshes.
	var last struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(tailA[len(tailA)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Epoch < 2 {
		t.Fatalf("tail ended at epoch %d; want ≥ 2 so the property covers re-learnings", last.Epoch)
	}
}

// TestSessionDeleteRemovesCheckpoint pins DELETE semantics in a durable
// pool: a deleted session must not resurrect on restart or lazy page-in.
func TestSessionDeleteRemovesCheckpoint(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 31)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts.URL, "doomed", 30, 3)
	feedSession(t, ts.URL, "doomed", rows, 0, 10)
	if n := s.CheckpointSessions(); n != 1 {
		t.Fatalf("checkpointed %d sessions, want 1", n)
	}
	ckpt := filepath.Join(dir, "sessions", "doomed.ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived the delete: %v", err)
	}
	// No lazy page-in of a deleted session.
	resp2, _ := post(t, ts.URL+"/v1/assign", map[string]any{"session": "doomed", "row": rows[0]})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still serves: %d", resp2.StatusCode)
	}
	// And the id is free for re-creation.
	createSession(t, ts.URL, "doomed", 30, 3)
}

// TestDurablePoolRejectsTraversalIds pins the path guard on the durable
// pool's disk paths: a crafted session id must neither read nor unlink
// files outside the state dir (resident ids are validated at create time;
// the assign page-in and delete paths take ids straight off the wire).
func TestDurablePoolRejectsTraversalIds(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 61)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	// A bystander file one level above the sessions dir, where "../x" points.
	victim := filepath.Join(dir, "x.ckpt")
	if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../x", "..", "a/b", "x\x00y"} {
		resp, _ := post(t, ts.URL+"/v1/assign", map[string]any{"session": id, "row": rows[0]})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("assign with id %q: %d, want 404", id, resp.StatusCode)
		}
		if s.sessions.remove(id) {
			t.Errorf("remove(%q) claimed success", id)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "precious" {
		t.Fatalf("bystander file touched: %v %q", err, data)
	}
}

// TestSessionTTLBoundsPool is the create-heavy load property: with a TTL the
// pool's live-session count collapses to the working set once sessions go
// idle, the evictions surface in /metrics, and (memory-only pool) evicted
// ids are gone for good.
func TestSessionTTLBoundsPool(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 37)
	s, err := New(Config{}) // sweep driven explicitly for determinism
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	const created = 200
	for i := 0; i < created; i++ {
		createSession(t, ts.URL, fmt.Sprintf("s%03d", i), 30, int64(i+1))
	}
	feedSession(t, ts.URL, "s000", rows, 0, 3)
	if got := s.sessions.count(); got != created {
		t.Fatalf("pool holds %d sessions, want %d", got, created)
	}
	time.Sleep(30 * time.Millisecond)
	// Keep one session hot across the idle gap.
	feedSession(t, ts.URL, "s000", rows, 3, 4)
	if n := s.SweepSessions(25 * time.Millisecond); n != created-1 {
		t.Fatalf("sweep evicted %d sessions, want %d", n, created-1)
	}
	if got := s.sessions.count(); got != 1 {
		t.Fatalf("pool holds %d sessions after sweep, want 1 (the hot one)", got)
	}
	_, data := get(t, ts.URL+"/v1/metrics")
	if want := fmt.Sprintf("mcdcd_sessions_evicted_total %d", created-1); !strings.Contains(string(data), want) {
		t.Errorf("metrics missing %q", want)
	}
	// Memory-only pool: eviction is deletion.
	resp, _ := post(t, ts.URL+"/v1/assign", map[string]any{"session": "s117", "row": rows[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still serves: %d", resp.StatusCode)
	}
	// The hot session is untouched.
	feedSession(t, ts.URL, "s000", rows, 4, 6)
}

// TestEvictionSpillsAndPagesBackIn pins the durable-pool eviction contract
// and that a checkpoint has no observable effect: a session evicted after
// every 7 arrivals spills to disk, pages back in on the next touch, and
// answers byte-identically to an in-memory daemon that never checkpoints —
// with and without Replicate, at Workers 1, 2 and GOMAXPROCS. Every
// checkpoint write is counted, whichever path made it: evictions of the
// dirty session in a plain pool, create and every assignment in a
// replicated one (whose evictions find the session clean).
func TestEvictionSpillsAndPagesBackIn(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 41)
	const total, window, every = 130, 40, 7
	for _, replicate := range []bool{false, true} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("replicate=%v/workers=%d", replicate, workers), func(t *testing.T) {
				ref, refTS := newTestServer(t, Config{Workers: workers})
				ev, evTS := newTestServer(t, Config{StateDir: t.TempDir(), Replicate: replicate, Workers: workers})
				for _, s := range []*Server{ref, ev} {
					if err := s.AddModel("m", snap); err != nil {
						t.Fatal(err)
					}
				}
				createSession(t, refTS.URL, "s", window, 13)
				createSession(t, evTS.URL, "s", window, 13)
				want := feedSession(t, refTS.URL, "s", rows, 0, total)

				var got []string
				evictions := int64(0)
				for from := 0; from < total; from += every {
					got = append(got, feedSession(t, evTS.URL, "s", rows, from, min(from+every, total))...)
					time.Sleep(2 * time.Millisecond)
					if n := ev.SweepSessions(time.Millisecond); n != 1 {
						t.Fatalf("sweep after arrival %d evicted %d, want 1", len(got), n)
					}
					if n := ev.sessions.count(); n != 0 {
						t.Fatalf("session still resident after eviction: count=%d", n)
					}
					evictions++
				}
				if n := ev.sessions.restored.Load(); n != evictions-1 {
					t.Fatalf("restored counter = %d, want %d (one page-in per eviction but the last)", n, evictions-1)
				}
				differ := 0
				for i := range want {
					if got[i] != want[i] {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%d of %d answers differ from the in-memory reference", differ, total)
				}

				body := scrape(t, evTS.URL)
				wantCkpts := evictions
				if replicate {
					wantCkpts = 1 + total
				}
				if n := seriesValue(t, body, "mcdcd_session_checkpoints_total"); n != wantCkpts {
					t.Errorf("mcdcd_session_checkpoints_total = %d, want %d", n, wantCkpts)
				}
				if n := seriesValue(t, body, `mcdcd_stage_duration_seconds_count{stage="checkpoint"}`); n != wantCkpts {
					t.Errorf("checkpoint stage count = %d, want %d", n, wantCkpts)
				}
			})
		}
	}
}

// TestConcurrentSessionLifecycleRace is the -race hammer over the full
// session lifecycle: concurrent create / assign / sweep-evict / checkpoint /
// delete traffic against a durable pool while a model hot swap runs. It
// asserts liveness and the absence of data races; the deterministic
// properties live in the tests above.
func TestConcurrentSessionLifecycleRace(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 43)
	snap2, _, _ := trainModel(t, 200, 6, 3, 44)
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters, ids = 10, 30, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("h%d", (g+i)%ids)
				switch g % 5 {
				case 0: // creator (conflicts expected)
					resp, data := post(t, ts.URL+"/v1/sessions", map[string]any{"session": id, "model": "m", "window": 30, "seed": int64(g + 1)})
					if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
						errs <- fmt.Errorf("create %s: %d %s", id, resp.StatusCode, data)
						return
					}
				case 1, 2, 3: // assigner (missing sessions expected)
					resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"session": id, "row": rows[(g*iters+i)%len(rows)]})
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("assign %s: %d %s", id, resp.StatusCode, data)
						return
					}
				case 4: // deleter
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
						errs <- fmt.Errorf("delete %s: %d", id, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	// Concurrent maintenance: evictions, checkpoints, and a hot swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.SweepSessions(time.Microsecond) // everything idle is fair game
			s.CheckpointSessions()
			if i == 10 {
				if err := s.AddModel("m", snap2); err != nil {
					errs <- err
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The daemon is still coherent: metrics render and sessions still serve.
	if _, data := get(t, ts.URL+"/v1/metrics"); !strings.Contains(string(data), "mcdcd_sessions_evicted_total") {
		t.Errorf("metrics incoherent after hammer: %s", data)
	}
}

// TestStaleFormatCheckpointAnswersVersionMismatch: a session checkpoint
// written under another format version is refused loudly. After a restart
// over it, JSON and frame assigns answer version_mismatch instead of
// unknown_session, the file stays on disk, and DELETE still removes it.
func TestStaleFormatCheckpointAnswersVersionMismatch(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 31)
	dir := t.TempDir()
	first, firstTS := newTestServer(t, Config{StateDir: dir})
	if err := first.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, firstTS.URL, "old", 30, 7)
	feedSession(t, firstTS.URL, "old", rows, 0, 5)
	firstTS.Close()
	first.Close() // flushes the checkpoint

	path := filepath.Join(dir, "sessions", "old"+checkpointExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len("MCDCSNAP")+1] = model.FormatVersion - 1 // the version byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{StateDir: dir})
	resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"session": "old", "row": rows[5]})
	var env errorResponse
	if err := json.Unmarshal(data, &env); err != nil || resp.StatusCode != http.StatusUnprocessableEntity || env.Code != codeVersionMismatch {
		t.Fatalf("JSON assign: %d %s, want 422 %s", resp.StatusCode, data, codeVersionMismatch)
	}
	req := wireStream(t)
	appendFrame(t, req, model.FrameAssign, model.AppendAssignRequest(nil, "", "old", rows[5]))
	resp, data = postWire(t, ts.URL+"/v1/assign", req.Bytes())
	frames := readFrames(t, data)
	if resp.StatusCode != http.StatusOK || len(frames) != 1 || frames[0].kind != model.FrameError {
		t.Fatalf("frame assign: %d, frames %v, want one in-band error", resp.StatusCode, frames)
	}
	if code, msg, err := model.DecodeError(frames[0].payload); err != nil || code != codeVersionMismatch {
		t.Fatalf("frame assign: code %q (%s), want %s", code, msg, codeVersionMismatch)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale checkpoint was not kept: %v", err)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/old", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", delResp.StatusCode)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("delete left the stale checkpoint behind: %v", err)
	}
}

// TestInstallShipPrecedesNextAssignment pins per-session ship order across
// an install: the replica ship of an adopted or promoted session reaches the
// holder before the ship of any assignment that follows it. Otherwise the
// holder keeps the older installed state, and the next failover silently
// drops that assignment.
func TestInstallShipPrecedesNextAssignment(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 61)
	for _, via := range []string{"adopt", "promote"} {
		t.Run(via, func(t *testing.T) {
			src, srcTS := newTestServer(t, Config{StateDir: t.TempDir()})
			if err := src.AddModel("m", snap); err != nil {
				t.Fatal(err)
			}
			createSession(t, srcTS.URL, "mv", 30, 11)
			feedSession(t, srcTS.URL, "mv", rows, 0, 5)
			resp, ckpt := get(t, srcTS.URL+"/v1/sessions/mv/checkpoint")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("checkpoint fetch: %d %s", resp.StatusCode, ckpt)
			}

			// The holder parks the first replica ship it receives — install's
			// — until released.
			holderDir := t.TempDir()
			holder, err := New(Config{Replicate: true, StateDir: holderDir})
			if err != nil {
				t.Fatal(err)
			}
			held, release := make(chan struct{}), make(chan struct{})
			var parked atomic.Bool
			h := holder.Handler()
			hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/replica/checkpoint" && parked.CompareAndSwap(false, true) {
					close(held)
					<-release
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { hts.Close(); holder.Close() })
			releaseOnce := sync.OnceFunc(func() { close(release) })
			t.Cleanup(releaseOnce) // runs first: a failing test must not hang hts.Close

			owner, ots := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
			oAddr := strings.TrimPrefix(ots.URL, "http://")
			hAddr := strings.TrimPrefix(hts.URL, "http://")
			owner.ConfigureReplication(oAddr, []string{oAddr, hAddr}, "")
			holder.ConfigureReplication(hAddr, []string{oAddr, hAddr}, "")
			if via == "promote" {
				if msg := postRaw(ots.URL+"/v1/replica/checkpoint?session=mv", ckpt, ""); msg != "" {
					t.Fatal(msg)
				}
			}

			installed := make(chan string, 1)
			go func() { installed <- postRaw(ots.URL+"/v1/sessions/mv/"+via, ckpt, "") }()
			<-held // the session is published and its install ship is parked
			body, err := json.Marshal(map[string]any{"session": "mv", "row": rows[5]})
			if err != nil {
				t.Fatal(err)
			}
			assigned := make(chan string, 1)
			go func() { assigned <- postRaw(ots.URL+"/v1/assign", body, "r-after-install") }()
			// An assignment able to overtake the parked ship finishes within
			// this wait; a correct one waits behind the ship. Either way the
			// release comes well inside shipTimeout, so the parked ship lands.
			select {
			case msg := <-assigned:
				assigned <- msg
			case <-time.After(200 * time.Millisecond):
			}
			releaseOnce()
			for _, ch := range []chan string{installed, assigned} {
				if msg := <-ch; msg != "" {
					t.Fatal(msg)
				}
			}

			st, err := model.LoadStreamFile(filepath.Join(holderDir, "replicas", "mv"+checkpointExt))
			if err != nil {
				t.Fatal(err)
			}
			if st.LastReqID != "r-after-install" {
				t.Fatalf("holder's replica carries request %q, want r-after-install: a newer ship overtook install's", st.LastReqID)
			}
		})
	}
}

// TestInstallCountsItsCheckpoint pins that the checkpoint a promotion or an
// adoption writes counts as every other checkpoint write does: each adds one
// to the installing daemon's mcdcd_session_checkpoints_total and to its
// checkpoint stage histogram.
func TestInstallCountsItsCheckpoint(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 61)
	src, srcTS := newTestServer(t, Config{StateDir: t.TempDir()})
	if err := src.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, srcTS.URL, "mv", 30, 11)
	feedSession(t, srcTS.URL, "mv", rows, 0, 5)
	resp, ckpt := get(t, srcTS.URL+"/v1/sessions/mv/checkpoint")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint fetch: %d %s", resp.StatusCode, ckpt)
	}
	for _, via := range []string{"adopt", "promote"} {
		t.Run(via, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
			if via == "promote" {
				if msg := postRaw(ts.URL+"/v1/replica/checkpoint?session=mv", ckpt, ""); msg != "" {
					t.Fatal(msg)
				}
			}
			before := scrape(t, ts.URL)
			if msg := postRaw(ts.URL+"/v1/sessions/mv/"+via, ckpt, ""); msg != "" {
				t.Fatal(msg)
			}
			after := scrape(t, ts.URL)
			for _, series := range []string{"mcdcd_session_checkpoints_total", `mcdcd_stage_duration_seconds_count{stage="checkpoint"}`} {
				if d := seriesValue(t, after, series) - seriesValue(t, before, series); d != 1 {
					t.Errorf("%s rose by %d over the %s, want 1", series, d, via)
				}
			}
		})
	}
}

// postRaw posts body, with a request id header when reqID is non-empty,
// and returns "" on a 2xx answer or else what went wrong. Unlike post it is
// safe to call off the test goroutine.
func postRaw(url string, body []byte, reqID string) string {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	if reqID != "" {
		req.Header.Set(RequestIDHeader, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Sprintf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	return ""
}

// TestFleetRoutesRequireSecret pins the guard on every intra-fleet route of
// a daemon that has a fleet secret: a request without the secret header, or
// with a wrong one, is answered 403 with the forbidden envelope, and the
// right one reaches the route. It also pins the bytes of the session
// inventory the gateway reads from GET /v1/sessions.
func TestFleetRoutesRequireSecret(t *testing.T) {
	snap, rows, _ := trainModel(t, 120, 5, 3, 71)
	srv, ts := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
	if err := srv.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(ts.URL, "http://")
	const secret = "s3cret"
	srv.ConfigureReplication(addr, []string{addr}, secret)
	createSession(t, ts.URL, "own", 40, 1)
	feedSession(t, ts.URL, "own", rows, 0, 3)

	send := func(method, path string, body []byte, key string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set(fleetSecretHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	// The owned session's checkpoint is the body sent to the routes that
	// take one, so that with the right secret they succeed.
	status, ckpt := send(http.MethodGet, "/v1/sessions/own/checkpoint", nil, secret)
	if status != http.StatusOK {
		t.Fatalf("checkpoint with the secret: %d %s", status, ckpt)
	}
	routes := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/sessions", nil},
		{http.MethodGet, "/v1/sessions/own/checkpoint", nil},
		{http.MethodPost, "/v1/sessions/held/promote", nil}, // no replica yet: 404
		{http.MethodPost, "/v1/sessions/moved/adopt", ckpt},
		{http.MethodPost, "/v1/replica/checkpoint?session=held", ckpt},
		{http.MethodDelete, "/v1/replica/gone", nil},
		{http.MethodPost, "/v1/fleet", []byte(`{"peers":["` + addr + `"]}`)},
	}
	for _, rt := range routes {
		for _, key := range []string{"", "wrong"} {
			status, data := send(rt.method, rt.path, rt.body, key)
			var env struct{ Code string }
			if status != http.StatusForbidden || json.Unmarshal(data, &env) != nil || env.Code != codeForbidden {
				t.Errorf("%s %s with secret %q: %d %s, want 403 %s", rt.method, rt.path, key, status, data, codeForbidden)
			}
		}
		if status, data := send(rt.method, rt.path, rt.body, secret); status == http.StatusForbidden {
			t.Errorf("%s %s with the right secret: %d %s", rt.method, rt.path, status, data)
		}
	}
	status, data := send(http.MethodGet, "/v1/sessions", nil, secret)
	if want := `{"replicas":["held"],"sessions":["moved","own"]}` + "\n"; status != http.StatusOK || string(data) != want {
		t.Fatalf("inventory: %d %q, want 200 %q", status, data, want)
	}
}
