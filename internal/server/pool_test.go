package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolReadsDoNotWaitOnWrites pins that neither a scrape nor the session
// inventory waits on a session's write path. The replica holder parks an
// assignment's ship until the read has returned, so the read must come back
// while the owner still holds the session mutex, and the ship must then land.
// A read that took the session mutex would wait on the ship, and the ship on
// the read, until the ship's timeout broke the wait and counted a failure.
func TestPoolReadsDoNotWaitOnWrites(t *testing.T) {
	snap, rows, _ := trainModel(t, 120, 5, 3, 73)
	for _, path := range []string{"/v1/metrics", "/v1/sessions"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			holder, err := New(Config{Replicate: true, StateDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			held, readDone := make(chan struct{}), make(chan struct{})
			h := holder.Handler()
			hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/replica/checkpoint" && armed.CompareAndSwap(true, false) {
					close(held)
					<-readDone
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { hts.Close(); holder.Close() })
			release := sync.OnceFunc(func() { close(readDone) })
			t.Cleanup(release) // runs first: a failing test must not hang hts.Close

			owner, ots := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
			if err := owner.AddModel("m", snap); err != nil {
				t.Fatal(err)
			}
			oAddr := strings.TrimPrefix(ots.URL, "http://")
			hAddr := strings.TrimPrefix(hts.URL, "http://")
			owner.ConfigureReplication(oAddr, []string{oAddr, hAddr}, "")
			holder.ConfigureReplication(hAddr, []string{oAddr, hAddr}, "")
			createSession(t, ots.URL, "s", 40, 1)
			feedSession(t, ots.URL, "s", rows, 0, 3)

			armed.Store(true)
			body, err := json.Marshal(map[string]any{"session": "s", "row": rows[3]})
			if err != nil {
				t.Fatal(err)
			}
			assigned := make(chan string, 1)
			go func() { assigned <- postRaw(ots.URL+"/v1/assign", body, "") }()
			<-held // the assignment holds the session mutex through its ship
			resp, data := get(t, ots.URL+path)
			release()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, resp.StatusCode, data)
			}
			if path == "/v1/metrics" {
				// The held assignment counted before its checkpoint: four rows
				// before the session's first re-learn, each one drift.
				if n := seriesValue(t, string(data), "mcdcd_session_drift_total"); n != 4 {
					t.Errorf("mcdcd_session_drift_total = %d, want 4", n)
				}
			} else {
				var inv sessionInventory
				if err := json.Unmarshal(data, &inv); err != nil || !reflect.DeepEqual(inv.Sessions, []string{"s"}) {
					t.Errorf("inventory %s (%v), want the one session s", data, err)
				}
			}
			if msg := <-assigned; msg != "" {
				t.Fatal(msg)
			}
			if n := owner.sessions.shipFailures.Load(); n != 0 {
				t.Fatalf("%d replica ships failed: the read held the ship up until it timed out", n)
			}
		})
	}
}

// TestSessionDriftSurvivesRetirement pins mcdcd_session_drift_total across a
// session's life in a durable pool: every session assignment below the
// drift threshold counts once, whether the session is later evicted, paged
// back in or deleted, and a replayed request id does not count again. Rows
// fed before a session's first re-learn have similarity 0, so each counts.
func TestSessionDriftSurvivesRetirement(t *testing.T) {
	snap, rows, _ := trainModel(t, 150, 5, 2, 79)
	s, ts := newTestServer(t, Config{StateDir: t.TempDir()})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	drift := func(want int64, after string) {
		t.Helper()
		if n := seriesValue(t, scrape(t, ts.URL), "mcdcd_session_drift_total"); n != want {
			t.Fatalf("mcdcd_session_drift_total = %d after %s, want %d", n, after, want)
		}
	}
	// Window 200: the first re-learn comes after 50 drifting rows, and this
	// test feeds 11.
	createSession(t, ts.URL, "d", 200, 3)
	feedSession(t, ts.URL, "d", rows, 0, 6)
	drift(6, "6 rows")

	if n := s.SweepSessions(time.Nanosecond); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	drift(6, "the eviction")

	feedSession(t, ts.URL, "d", rows, 6, 10)
	if n := s.sessions.restored.Load(); n != 1 {
		t.Fatalf("restored counter = %d, want 1 (the page-in)", n)
	}
	drift(10, "a page-in and 4 more rows")

	body, err := json.Marshal(map[string]any{"session": "d", "row": rows[10]})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if msg := postRaw(ts.URL+"/v1/assign", body, "r-once"); msg != "" {
			t.Fatal(msg)
		}
	}
	if n := s.sessions.replayed.Load(); n != 1 {
		t.Fatalf("replay counter = %d, want 1", n)
	}
	drift(11, "a row and its replay")

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/d", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	drift(11, "the delete")
}

// TestPromoteFailureKeepsReplica pins that a promotion which fails to
// install keeps the replica it read: until a session is installed, its
// replica may be its only copy. A retried promote, once the fault is gone,
// installs it at epoch 1, and only then is the replica dropped.
func TestPromoteFailureKeepsReplica(t *testing.T) {
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

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Replicate: true, StateDir: dir})
	if msg := postRaw(ts.URL+"/v1/replica/checkpoint?session=mv", ckpt, ""); msg != "" {
		t.Fatal(msg)
	}
	// A non-empty directory where the checkpoint's temporary file goes makes
	// the install's checkpoint write fail.
	obstacle := filepath.Join(dir, "sessions", "mv"+checkpointExt+".tmp")
	if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if resp, data := post(t, ts.URL+"/v1/sessions/mv/promote", nil); resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(string(data), `"code":"internal"`) {
		t.Fatalf("promote with a failing checkpoint write: %d %s, want 500 with code internal", resp.StatusCode, data)
	}
	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts.URL+"/v1/sessions/mv/promote", nil)
	var got struct{ Epoch int64 }
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &got) != nil || got.Epoch != 1 {
		t.Fatalf("retried promote: %d %s, want 200 at epoch 1", resp.StatusCode, data)
	}
	resp, data = get(t, ts.URL+"/v1/sessions")
	if want := `{"replicas":[],"sessions":["mv"]}` + "\n"; resp.StatusCode != http.StatusOK || string(data) != want {
		t.Fatalf("inventory after the promotion: %d %q, want %q", resp.StatusCode, data, want)
	}
	feedSession(t, ts.URL, "mv", rows, 5, 7)
}

// TestDaemonLoopsRun drives the daemon's three background loops at
// millisecond periods: the re-learn loop bumps a model's epoch once its
// window holds RelearnMin in-domain rows, the checkpoint loop writes a dirty
// session's checkpoint with no POST /v1/checkpoint, the TTL sweep evicts the
// session once it idles, and Close stops all three.
func TestDaemonLoopsRun(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 11)
	dir := t.TempDir()
	s, err := New(Config{
		StateDir:        dir,
		RelearnEvery:    10 * time.Millisecond,
		RelearnMin:      50,
		CheckpointEvery: 10 * time.Millisecond,
		SessionTTL:      400 * time.Millisecond, // swept every 100ms
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	createSession(t, ts.URL, "idle", 40, 1)
	feedSession(t, ts.URL, "idle", rows, 0, 3)
	ckpt := filepath.Join(dir, "sessions", "idle"+checkpointExt)
	waitFor(t, func() bool { _, err := os.Stat(ckpt); return err == nil })
	if n := s.sessions.evicted.Load(); n != 0 {
		t.Fatalf("the session was evicted (%d) before its checkpoint appeared: the file is the sweep's, not the checkpoint loop's", n)
	}

	sm, _ := s.registry.get("m")
	if resp, data := post(t, ts.URL+"/v1/assign/batch", map[string]any{"model": "m", "rows": rows[:50]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	waitFor(t, func() bool { return sm.load().Epoch == 1 })

	waitFor(t, func() bool { return s.sessions.count() == 0 })
	if n := s.sessions.evicted.Load(); n != 1 {
		t.Fatalf("evicted counter = %d, want 1", n)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s")
	}
}
