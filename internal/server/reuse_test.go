package server

import (
	"net/http"
	"reflect"
	"sync"
	"testing"

	"mcdc/internal/model"
)

func cloneRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// TestTrafficBufferOverwriteInPlace pins the traffic ring's slice reuse: a
// full ring overwrites its evicted row in place without allocating, yet
// never mutates a window that take handed out, nor one that restore put
// back after a failed re-learn.
func TestTrafficBufferOverwriteInPlace(t *testing.T) {
	b := newTrafficBuffer(4)
	for i := 1; i <= 4; i++ {
		b.add([]int{i, -i})
	}
	taken := b.take() // a re-learn's training window
	want := cloneRows(taken)
	for i := 5; i <= 16; i++ { // refill, then wrap twice over every slot
		b.add([]int{i, -i})
	}
	if !reflect.DeepEqual(taken, want) {
		t.Fatalf("taken window mutated by later traffic: %v, want %v", taken, want)
	}

	failed := b.take() // a re-learn that fails and restores its window
	want = cloneRows(failed)
	b.restore(failed)
	for i := 17; i <= 28; i++ {
		b.add([]int{i, -i})
	}
	if !reflect.DeepEqual(failed, want) {
		t.Fatalf("restored window mutated by later traffic: %v, want %v", failed, want)
	}
	if got := b.take(); !reflect.DeepEqual(got, [][]int{{25, -25}, {26, -26}, {27, -27}, {28, -28}}) {
		t.Fatalf("ring after wrapping: %v", got)
	}

	for i := 1; i <= 4; i++ {
		b.add([]int{i, -i})
	}
	row := []int{7, -7}
	if n := testing.AllocsPerRun(100, func() { b.add(row) }); n != 0 {
		t.Fatalf("add into a full ring: %v allocs, want 0", n)
	}
}

// TestTrafficBufferConcurrentOverwrite runs in-place overwrites against
// takes from other goroutines: under -race, a write into a window already
// handed out would be reported, and every taken row must still hold the
// values one add wrote together.
func TestTrafficBufferConcurrentOverwrite(t *testing.T) {
	b := newTrafficBuffer(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				b.add([]int{g, i, g + i})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var windows [][][]int
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		windows = append(windows, b.take())
	}
	for _, w := range windows {
		for _, row := range w {
			if len(row) != 3 || row[2] != row[0]+row[1] {
				t.Fatalf("taken row %v was overwritten after take", row)
			}
		}
	}
}

// TestWireStreamRowScratchIsolation pins the backend's per-stream row
// scratch: one frame stream interleaving two sessions and stateless rows
// leaves every retainer with its own rows — each session's stream window
// and replay-cache lastRow, and the model's traffic window — although all
// of them were decoded into the same scratch.
func TestWireStreamRowScratchIsolation(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 31)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts.URL, "left", 64, 1)
	createSession(t, ts.URL, "right", 64, 1)

	buf := wireStream(t)
	fed := map[string][][]int{}
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", rows[i]))
			fed["m"] = append(fed["m"], rows[i])
		case 1:
			appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "left", rows[i]))
			fed["left"] = append(fed["left"], rows[i])
		default:
			appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "right", rows[i]))
			fed["right"] = append(fed["right"], rows[i])
		}
	}
	resp, data := postWire(t, ts.URL+"/v1/assign", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, data)
	}
	for _, f := range readFrames(t, data) {
		if f.kind != model.FrameResult {
			code, msg, _ := model.DecodeError(f.payload)
			t.Fatalf("frame answered %q: %s %s", f.kind, code, msg)
		}
	}

	for _, id := range []string{"left", "right"} {
		sess, err := s.sessions.get(id)
		if err != nil || sess == nil {
			t.Fatalf("session %s: %v", id, err)
		}
		sess.mu.Lock()
		window, lastRow := sess.c.Snapshot().Window, append([]int(nil), sess.lastRow...)
		sess.mu.Unlock()
		if !reflect.DeepEqual(window, fed[id]) {
			t.Fatalf("session %s window %v, fed %v", id, window, fed[id])
		}
		if want := fed[id][len(fed[id])-1]; !reflect.DeepEqual(lastRow, want) {
			t.Fatalf("session %s lastRow %v, want %v", id, lastRow, want)
		}
	}
	sm, _ := s.registry.get("m")
	if got := sm.buf.take(); !reflect.DeepEqual(got, fed["m"]) {
		t.Fatalf("traffic window %v, fed %v", got, fed["m"])
	}
}

// TestRegistryNameAllocs pins the frame path's model lookup: a name that is
// served comes back as the registry's own string without allocating, and
// any other name is converted.
func TestRegistryNameAllocs(t *testing.T) {
	r := newRegistry()
	r.set("syn", &model.Snapshot{}, 4)
	served, unknown := []byte("syn"), []byte("nope")
	if got := r.name(served); got != "syn" {
		t.Fatalf("name(%q) = %q", served, got)
	}
	if got := r.name(unknown); got != "nope" {
		t.Fatalf("name(%q) = %q", unknown, got)
	}
	if got := r.name(nil); got != "" {
		t.Fatalf("name(nil) = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.name(served) }); n != 0 {
		t.Fatalf("name of a served model: %v allocs, want 0", n)
	}
}
