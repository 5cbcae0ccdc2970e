package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"mcdc/internal/model"
)

// postWire POSTs a raw binary frame stream and returns the response.
func postWire(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, WireContentType, bytes.NewReader(body))
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

// wireStream begins a frame stream: header plus any frames appended after.
func wireStream(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteWireHeader(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func appendFrame(t *testing.T, buf *bytes.Buffer, kind byte, payload []byte) {
	t.Helper()
	if err := model.WriteFrame(buf, kind, payload); err != nil {
		t.Fatal(err)
	}
}

// readFrames parses a full response stream (header + frames to EOF).
func readFrames(t *testing.T, data []byte) []struct {
	kind    byte
	payload []byte
} {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	if err := model.ReadWireHeader(br); err != nil {
		t.Fatalf("response wire header: %v (body %q)", err, data)
	}
	var out []struct {
		kind    byte
		payload []byte
	}
	for {
		kind, payload, err := model.ReadFrame(br, nil)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read response frame: %v", err)
		}
		out = append(out, struct {
			kind    byte
			payload []byte
		}{kind, payload})
	}
}

// TestWireAssignMatchesJSON pins protocol parity: the same row assigned over
// JSON and over a binary frame yields identical cluster/similarity/epoch.
func TestWireAssignMatchesJSON(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 6, 3, 5)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	for _, row := range rows[:20] {
		_, jdata := post(t, ts.URL+"/v1/assign", map[string]any{"model": "m", "row": row})
		var jr assignResponse
		if err := json.Unmarshal(jdata, &jr); err != nil {
			t.Fatal(err)
		}

		buf := wireStream(t)
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", row))
		resp, data := postWire(t, ts.URL+"/v1/assign", buf.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wire assign status %d: %s", resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != WireContentType {
			t.Fatalf("response Content-Type %q", ct)
		}
		frames := readFrames(t, data)
		if len(frames) != 1 || frames[0].kind != model.FrameResult {
			t.Fatalf("got %d frames, want one result", len(frames))
		}
		a, epoch, err := model.DecodeResult(frames[0].payload)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cluster != jr.Cluster || a.Similarity != jr.Similarity || epoch != jr.Epoch {
			t.Fatalf("binary (%d, %v, %d) != json (%d, %v, %d)",
				a.Cluster, a.Similarity, epoch, jr.Cluster, jr.Similarity, jr.Epoch)
		}
	}
}

// TestWireAssignPipelined sends many frames on one request, with a bad one
// in the middle: results come back in order, the bad frame answers with an
// in-band error frame, and the stream keeps going afterwards.
func TestWireAssignPipelined(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 6, 3, 5)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	const n = 10
	const badAt = 4 // frame 4 names a model that is not served
	buf := wireStream(t)
	for i := 0; i < n; i++ {
		name := "m"
		if i == badAt {
			name = "ghost"
		}
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, name, "", rows[i]))
	}
	resp, data := postWire(t, ts.URL+"/v1/assign", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	frames := readFrames(t, data)
	if len(frames) != n {
		t.Fatalf("got %d response frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		if i == badAt {
			if f.kind != model.FrameError {
				t.Fatalf("frame %d kind %q, want error frame", i, f.kind)
			}
			code, msg, err := model.DecodeError(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			if code != codeUnknownModel || msg == "" {
				t.Fatalf("error frame code %q msg %q, want %q", code, msg, codeUnknownModel)
			}
			continue
		}
		if f.kind != model.FrameResult {
			t.Fatalf("frame %d kind %q, want result", i, f.kind)
		}
		a, _, err := model.DecodeResult(f.payload)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check each against the JSON answer for the same row.
		_, jdata := post(t, ts.URL+"/v1/assign", map[string]any{"model": "m", "row": rows[i]})
		var jr assignResponse
		if err := json.Unmarshal(jdata, &jr); err != nil {
			t.Fatal(err)
		}
		if a.Cluster != jr.Cluster || a.Similarity != jr.Similarity {
			t.Fatalf("frame %d diverges from JSON", i)
		}
	}
}

// TestWireBatchMatchesJSON streams a batch as several row chunks and checks
// the reply: batch info with the pinned epoch, one results frame per input
// chunk, a clean end frame, and values identical to the JSON batch.
func TestWireBatchMatchesJSON(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 6, 3, 5)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	batch := rows[:50]
	_, jdata := post(t, ts.URL+"/v1/assign/batch", map[string]any{"model": "m", "rows": batch})
	var jr batchResponse
	if err := json.Unmarshal(jdata, &jr); err != nil {
		t.Fatal(err)
	}

	chunks := [][][]int{batch[:7], batch[7:30], batch[30:]}
	buf := wireStream(t)
	appendFrame(t, buf, model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
	for _, c := range chunks {
		appendFrame(t, buf, model.FrameRows, model.AppendRows(nil, c))
	}
	appendFrame(t, buf, model.FrameEnd, nil)

	resp, data := postWire(t, ts.URL+"/v1/assign/batch", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	frames := readFrames(t, data)
	if want := 1 + len(chunks) + 1; len(frames) != want {
		t.Fatalf("got %d frames, want %d (info + %d results + end)", len(frames), want, len(chunks))
	}
	if frames[0].kind != model.FrameBatchInfo {
		t.Fatalf("first frame kind %q, want batch info", frames[0].kind)
	}
	name, epoch, err := model.DecodeBatchInfo(frames[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if name != "m" || epoch != jr.Epoch {
		t.Fatalf("batch info (%q, %d), want (%q, %d)", name, epoch, "m", jr.Epoch)
	}
	if last := frames[len(frames)-1]; last.kind != model.FrameEnd {
		t.Fatalf("last frame kind %q, want end", last.kind)
	}
	var got []model.Assignment
	for i, f := range frames[1 : len(frames)-1] {
		if f.kind != model.FrameResults {
			t.Fatalf("frame %d kind %q, want results", i+1, f.kind)
		}
		n := len(got)
		if got, err = model.DecodeResults(f.payload, got); err != nil {
			t.Fatal(err)
		}
		if len(got)-n != len(chunks[i]) {
			t.Fatalf("chunk %d returned %d results, want %d", i, len(got)-n, len(chunks[i]))
		}
	}
	if len(got) != len(jr.Assignments) {
		t.Fatalf("binary batch returned %d assignments, JSON %d", len(got), len(jr.Assignments))
	}
	for i := range got {
		if got[i].Cluster != jr.Assignments[i].Cluster || got[i].Similarity != jr.Assignments[i].Similarity {
			t.Fatalf("row %d: binary %+v != json %+v", i, got[i], jr.Assignments[i])
		}
	}
}

// TestWireBatchUnknownModel rejects before any rows stream: the batch-start
// frame names an unserved model, so the reply is a plain HTTP 404 envelope.
func TestWireBatchUnknownModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	buf := wireStream(t)
	appendFrame(t, buf, model.FrameBatchStart, model.AppendBatchStart(nil, "ghost"))
	appendFrame(t, buf, model.FrameEnd, nil)
	resp, data := postWire(t, ts.URL+"/v1/assign/batch", buf.Bytes())
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", resp.StatusCode, data)
	}
	var env errorResponse
	if err := json.Unmarshal(data, &env); err != nil || env.Code != codeUnknownModel {
		t.Fatalf("envelope %s, want code %q", data, codeUnknownModel)
	}
}

// TestWireBatchReadErrors pins how a daemon reports a broken batch stream:
// only a clean end before 'E' is a truncated request; any other read error
// answers with its own text. All stay 400 bad_request.
func TestWireBatchReadErrors(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 5)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	open := func() *bytes.Buffer {
		buf := wireStream(t)
		appendFrame(t, buf, model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
		appendFrame(t, buf, model.FrameRows, model.AppendRows(nil, rows[:10]))
		return buf
	}
	oversized := open()
	oversized.WriteByte(model.FrameRows)
	oversized.Write(binary.AppendUvarint(nil, model.MaxFramePayload+1))
	cut := open()
	cut.WriteByte(model.FrameRows)
	cut.Write(binary.AppendUvarint(nil, 100))
	cut.Write(make([]byte, 10))
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"oversized frame", oversized.Bytes(), fmt.Sprintf("model: frame payload of %d bytes exceeds the %d limit", model.MaxFramePayload+1, model.MaxFramePayload)},
		{"cut mid-frame", cut.Bytes(), "model: read frame payload: unexpected EOF"},
		{"no end frame", open().Bytes(), "batch stream ended without an end frame"},
	} {
		resp, data := postWire(t, ts.URL+"/v1/assign/batch", tc.body)
		var env errorResponse
		if err := json.Unmarshal(data, &env); err != nil || resp.StatusCode != http.StatusBadRequest || env.Code != codeBadRequest {
			t.Fatalf("%s: %d %s, want 400 %s", tc.name, resp.StatusCode, data, codeBadRequest)
		}
		if env.Error != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, env.Error, tc.want)
		}
	}
}

// TestWireVersionMismatch pins the version-byte policy: a stream stamped
// with a future wire version is refused with 422 and the stable code, same
// rule as snapshot files.
func TestWireVersionMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := model.WriteWireHeader(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = model.WireVersion + 1 // corrupt the version byte

	for _, path := range []string{"/v1/assign", "/v1/assign/batch"} {
		resp, data := postWire(t, ts.URL+path, raw)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%s)", path, resp.StatusCode, data)
		}
		var env errorResponse
		if err := json.Unmarshal(data, &env); err != nil || env.Code != codeVersionMismatch {
			t.Fatalf("%s: envelope %s, want code %q", path, data, codeVersionMismatch)
		}
	}
}

// TestWireNotWire pins the garbage-input contract: a binary Content-Type
// with a non-wire body is a 400 bad_request, not a hang or a 500.
func TestWireNotWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postWire(t, ts.URL+"/v1/assign", []byte(`{"model":"m"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
	var env errorResponse
	if err := json.Unmarshal(data, &env); err != nil || env.Code != codeBadRequest {
		t.Fatalf("envelope %s, want code %q", data, codeBadRequest)
	}
}

// TestWireRefusedStreamAppliesNothing pins the whole-request verdict on a
// broken frame stream: two frames for one session and a stateless frame,
// then a cut frame, answer 400, and neither the session — its stream state
// and its replay cache — nor the model's traffic window has moved.
func TestWireRefusedStreamAppliesNothing(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 43)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, ts.URL, "held", 40, 7)
	feedSession(t, ts.URL, "held", rows, 0, 3)
	if resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"model": "m", "row": rows[3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("stateless assign: %d %s", resp.StatusCode, data)
	}
	sm, _ := s.registry.get("m")
	type state struct {
		stream    *model.StreamState
		lastReqID string
		lastRow   []int
		traffic   [][]int
		next      int
	}
	read := func() state {
		sess, err := s.sessions.get("held")
		if err != nil || sess == nil {
			t.Fatalf("session held: %v", err)
		}
		sess.mu.Lock()
		st := state{stream: sess.c.Snapshot(), lastReqID: sess.lastReqID, lastRow: append([]int(nil), sess.lastRow...)}
		sess.mu.Unlock()
		sm.buf.mu.Lock()
		st.traffic, st.next = cloneRows(sm.buf.rows), sm.buf.next
		sm.buf.mu.Unlock()
		return st
	}
	before := read()

	buf := wireStream(t)
	appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "held", rows[4]))
	appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "held", rows[5]))
	appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", rows[6]))
	buf.WriteByte(model.FrameAssign)
	buf.Write(binary.AppendUvarint(nil, 100))
	buf.Write(make([]byte, 10))
	resp, data := postWire(t, ts.URL+"/v1/assign", buf.Bytes())
	var env errorResponse
	if err := json.Unmarshal(data, &env); err != nil || resp.StatusCode != http.StatusBadRequest || env.Code != codeBadRequest {
		t.Fatalf("cut stream: %d %q, want 400 %s", resp.StatusCode, data, codeBadRequest)
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused stream applied rows:\nbefore %+v\nafter  %+v", before, after)
	}
}
