package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mcdc/internal/model"
	"mcdc/internal/testenv"
)

// TestGatewayWireByteIdenticalToSingleBackend extends the byte-identity
// acceptance criterion to the binary frame protocol: a 2-backend gateway's
// wire responses for pipelined assigns and a streamed batch are the exact
// bytes a single backend produces.
func TestGatewayWireByteIdenticalToSingleBackend(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 8, 3, 51)
	_, gts, backends, _ := gatewayFleet(t, 2, Config{})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	// Pipelined assigns, with an undecipherable request in the middle — the
	// gateway answers that slot locally with the backend's exact error text,
	// so the merged stream still matches the solo bytes.
	buf := wireStream(t)
	for _, row := range rows[:40] {
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", row))
	}
	appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "", rows[40]))
	for _, row := range rows[41:60] {
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", row))
	}

	gresp, gdata := postWire(t, gts.URL+"/v1/assign", buf.Bytes())
	sresp, sdata := postWire(t, soloTS.URL+"/v1/assign", buf.Bytes())
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("wire assign: gateway %d, solo %d", gresp.StatusCode, sresp.StatusCode)
	}
	if !bytes.Equal(gdata, sdata) {
		t.Fatalf("gateway wire assign stream is not byte-identical to the single backend:\ngateway %d bytes, solo %d bytes", len(gdata), len(sdata))
	}

	// Streamed batch across several chunks: scattered by row key, merged
	// back on the original chunk boundaries.
	buf = wireStream(t)
	appendFrame(t, buf, model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
	for _, c := range [][][]int{rows[:100], rows[100:110], rows[110:]} {
		appendFrame(t, buf, model.FrameRows, model.AppendRows(nil, c))
	}
	appendFrame(t, buf, model.FrameEnd, nil)

	gresp, gdata = postWire(t, gts.URL+"/v1/assign/batch", buf.Bytes())
	sresp, sdata = postWire(t, soloTS.URL+"/v1/assign/batch", buf.Bytes())
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("wire batch: gateway %d, solo %d (%s | %s)", gresp.StatusCode, sresp.StatusCode, gdata, sdata)
	}
	if !bytes.Equal(gdata, sdata) {
		t.Fatal("gateway wire batch response is not byte-identical to the single backend")
	}

	// The scatter really split the work; otherwise this checked only one
	// backend's answer.
	spread := 0
	for _, b := range backends {
		if sm, ok := b.registry.get("m"); ok && sm.buf.len() > 0 {
			spread++
		}
	}
	if spread != 2 {
		t.Fatalf("wire batch traffic reached %d/2 backends", spread)
	}
}

// TestGatewayWireVersionMismatch: the gateway enforces the version byte
// itself and answers 422 without consulting any backend.
func TestGatewayWireVersionMismatch(t *testing.T) {
	_, gts, _, _ := gatewayFleet(t, 2, Config{})
	var buf bytes.Buffer
	if err := model.WriteWireHeader(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = model.WireVersion + 1
	for _, path := range []string{"/v1/assign", "/v1/assign/batch"} {
		resp, data := postWire(t, gts.URL+path, raw)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%s)", path, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), codeVersionMismatch) {
			t.Fatalf("%s: envelope %s, want code %q", path, data, codeVersionMismatch)
		}
	}
}

// TestGatewayPropagatesShed pins the overload relay: a backend's 429 passes
// through the gateway with status, Retry-After, and body unchanged, and the
// gateway counts the shed per backend in its /metrics.
func TestGatewayPropagatesShed(t *testing.T) {
	const retryAfter = "7"
	shedBody := `{"error":"server at capacity","code":"overloaded"}` + "\n"
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Like a real mcdcd, only assignment routes shed; health and
		// metrics probes answer normally.
		if r.Method == http.MethodGet {
			if strings.HasSuffix(r.URL.Path, "/v1/healthz") {
				fmt.Fprintln(w, `{"status":"ok"}`)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(shedBody))
	}))
	defer backend.Close()

	gw, err := NewGateway(GatewayConfig{Backends: []string{strings.TrimPrefix(backend.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	defer func() { gts.Close(); gw.Close() }()

	for i, path := range []string{"/v1/assign", "/v1/assign/batch"} {
		body := map[string]any{"model": "m", "row": []int{1}}
		if strings.HasSuffix(path, "batch") {
			body = map[string]any{"model": "m", "rows": [][]int{{1}}}
		}
		resp, data := post(t, gts.URL+path, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429 (%s)", path, resp.StatusCode, data)
		}
		if ra := resp.Header.Get("Retry-After"); ra != retryAfter {
			t.Fatalf("%s: Retry-After %q, want %q", path, ra, retryAfter)
		}
		if string(data) != shedBody {
			t.Fatalf("%s: body altered in transit:\n%q\nwant\n%q", path, data, shedBody)
		}

		_, mdata := get(t, gts.URL+"/v1/metrics")
		want := fmt.Sprintf("mcdcd_gateway_backend_sheds_total{backend=%q} %d",
			strings.TrimPrefix(backend.URL, "http://"), i+1)
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("gateway metrics missing %q:\n%s", want, mdata)
		}
	}
}

// recordingTransport records every gateway → backend request (path,
// Content-Type, body) before passing it on.
type recordingTransport struct {
	mu   sync.Mutex
	reqs []recordedRequest
}

type recordedRequest struct {
	path, ctype string
	body        []byte
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := recordedRequest{path: req.URL.Path, ctype: req.Header.Get("Content-Type")}
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		rec.body = body
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	rt.mu.Lock()
	rt.reqs = append(rt.reqs, rec)
	rt.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// assigns returns the recorded requests on the assignment routes and clears
// the record.
func (rt *recordingTransport) assigns() []recordedRequest {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []recordedRequest
	for _, rec := range rt.reqs {
		if rec.path == "/v1/assign" || rec.path == "/v1/assign/batch" {
			out = append(out, rec)
		}
	}
	rt.reqs = nil
	return out
}

// postJSONRaw POSTs a raw JSON body (which post cannot express when it is
// malformed or carries unknown fields).
func postJSONRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// TestGatewaySpeaksFramesUpstream pins the gateway's one upstream protocol:
// whatever codec and shape the client uses — JSON or frames, singles or
// batches, stateless or session — every gateway → backend assignment request
// is a binary frame stream, and the client still gets the solo bytes.
func TestGatewaySpeaksFramesUpstream(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 8, 3, 51)
	rec := &recordingTransport{}
	_, gts, backends, _ := gatewayFleetCfg(t, 2, Config{}, GatewayConfig{Transport: rec})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, gts.URL, "up", 40, 5)
	createSession(t, soloTS.URL, "up", 40, 5)

	stream := wireStream(t)
	for i, row := range rows[:30] {
		session, name := "", "m"
		if i%3 == 0 {
			session, name = "up", ""
		}
		appendFrame(t, stream, model.FrameAssign, model.AppendAssignRequest(nil, name, session, row))
	}
	batch := wireStream(t)
	appendFrame(t, batch, model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
	appendFrame(t, batch, model.FrameRows, model.AppendRows(nil, rows[:70]))
	appendFrame(t, batch, model.FrameEnd, nil)
	send := func(url, path, ctype string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(url+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d (%s)", path, ctype, resp.StatusCode, data)
		}
		return data
	}
	jsonBody := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name, path, ctype string
		body              []byte
	}{
		{"json single", "/v1/assign", "application/json", jsonBody(map[string]any{"model": "m", "row": rows[0]})},
		{"json session single", "/v1/assign", "application/json", jsonBody(map[string]any{"session": "up", "row": rows[1]})},
		{"json batch", "/v1/assign/batch", "application/json", jsonBody(map[string]any{"model": "m", "rows": rows[:70]})},
		{"frame stream", "/v1/assign", WireContentType, stream.Bytes()},
		{"frame batch", "/v1/assign/batch", WireContentType, batch.Bytes()},
	} {
		got := send(gts.URL, tc.path, tc.ctype, tc.body)
		if want := send(soloTS.URL, tc.path, tc.ctype, tc.body); !bytes.Equal(got, want) {
			t.Fatalf("%s: gateway answer is not byte-identical to the solo backend", tc.name)
		}
		upstream := rec.assigns()
		if len(upstream) == 0 {
			t.Fatalf("%s: no upstream assignment request recorded", tc.name)
		}
		for _, u := range upstream {
			if u.ctype != WireContentType || u.path != tc.path {
				t.Fatalf("%s: upstream %s with Content-Type %q, want %s frames", tc.name, u.path, u.ctype, tc.path)
			}
		}
	}
}

// TestGatewayAssignErrorsMatchSolo pins the shared edge decoder: a request a
// backend would reject — in either codec — gets the same status and body
// from the gateway, whether the gateway rejects it itself (bad JSON, unknown
// fields, no target, a broken frame stream) or a backend answers it (an
// unknown model, an empty batch, an in-band error). A frame stream that
// breaks anywhere is refused whole, even after well-formed 'A' frames; on the
// batch route the model is judged before emptiness. The JSON boundary rows
// sit at the edge of what the hand-written JSON scanner accepts, most just
// outside it, so encoding/json decodes them; each pins the status it
// answers, a success included where encoding/json accepts the body.
// MCDC_NIGHTLY=1 adds a frame batch and JSON bodies past the 64 MiB body
// bound.
func TestGatewayAssignErrorsMatchSolo(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 3)
	_, gts, backends, _ := gatewayFleet(t, 2, Config{})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	createSession(t, gts.URL, "s1", 40, 3)
	createSession(t, soloTS.URL, "s1", 40, 3)
	row, _ := json.Marshal(rows[0])

	// frames builds a frame stream: the wire header, then frames of the
	// given kinds, 'A' frames assigning rows against m; tail is appended raw.
	frames := func(batch string, kinds string, tail ...byte) []byte {
		buf := wireStream(t)
		for i, k := range []byte(kinds) {
			switch k {
			case model.FrameAssign:
				appendFrame(t, buf, k, model.AppendAssignRequest(nil, "m", "", rows[i]))
			case model.FrameBatchStart:
				appendFrame(t, buf, k, model.AppendBatchStart(nil, batch))
			case model.FrameRows:
				appendFrame(t, buf, k, model.AppendRows(nil, rows[i:i+3]))
			default:
				appendFrame(t, buf, k, nil)
			}
		}
		return append(buf.Bytes(), tail...)
	}
	cut := []byte{model.FrameRows, 100, 1, 2, 3}                                        // a frame cut mid-payload
	oversized := binary.AppendUvarint([]byte{model.FrameRows}, model.MaxFramePayload+1) // a length past the frame bound
	alien := frames("", "")
	alien[len(alien)-1] = model.WireVersion + 1

	type request struct {
		name, path string
		wire       bool
		body       []byte
	}
	cases := []request{
		{"malformed json", "/v1/assign", false, []byte(`{"model":`)},
		{"unknown field", "/v1/assign", false, []byte(`{"model":"m","row":` + string(row) + `,"extra":1}`)},
		{"row schema", "/v1/assign", false, []byte(`{"model":"m","row":[1]}`)},
		{"model and session", "/v1/assign", false, []byte(`{"model":"m","session":"s1","row":` + string(row) + `}`)},
		{"neither model nor session", "/v1/assign", false, []byte(`{"row":` + string(row) + `}`)},
		{"unknown model", "/v1/assign", false, []byte(`{"model":"ghost","row":` + string(row) + `}`)},
		{"unknown session", "/v1/assign", false, []byte(`{"session":"ghost","row":` + string(row) + `}`)},
		{"batch unknown model", "/v1/assign/batch", false, []byte(`{"model":"ghost","rows":[` + string(row) + `]}`)},
		{"batch unknown model, no rows", "/v1/assign/batch", false, []byte(`{"model":"ghost","rows":[]}`)},
		{"batch empty", "/v1/assign/batch", false, []byte(`{"model":"m","rows":[]}`)},
		{"batch unknown field", "/v1/assign/batch", false, []byte(`{"model":"m","rows":[],"extra":1}`)},

		{"frames: wrong kind after three 'A'", "/v1/assign", true, frames("", "AAAR")},
		{"frames: cut after three 'A'", "/v1/assign", true, frames("", "AAA", cut...)},
		{"frames: oversized after three 'A'", "/v1/assign", true, frames("", "AAA", oversized...)},
		{"frames: alien version", "/v1/assign", true, alien},
		{"frames: not a frame stream", "/v1/assign", true, []byte(`{"model":"m","row":` + string(row) + `}`)},
		{"frame batch: alien version", "/v1/assign/batch", true, alien},
		{"frame batch: not a frame stream", "/v1/assign/batch", true, []byte(`{"model":"m","rows":[]}`)},
		{"frame batch: unknown model, no rows", "/v1/assign/batch", true, frames("ghost", "BE")},
		{"frame batch: unknown model with rows", "/v1/assign/batch", true, frames("ghost", "BRRE")},
		{"frame batch: unknown model, then a cut frame", "/v1/assign/batch", true, frames("ghost", "BR", cut...)},
		{"frame batch: empty", "/v1/assign/batch", true, frames("m", "BE")},
		{"frame batch: only empty chunks", "/v1/assign/batch", true, frames("m", "B", model.FrameRows, 1, 0, model.FrameEnd, 0)},
		{"frame batch: no 'E'", "/v1/assign/batch", true, frames("m", "BRR")},
		{"frame batch: frames after 'E'", "/v1/assign/batch", true, frames("m", "BRER")},
		{"frame batch: no 'B'", "/v1/assign/batch", true, frames("m", "RE")},
		{"frame batch: wrong kind", "/v1/assign/batch", true, frames("m", "BRAE")},
	}
	status := map[string]int{} // what both tiers answer a row that need not fail
	// JSON bodies on the boundary of the scanner's subset, on both routes:
	// all but the leading whitespace fall just outside it. ROW stands for a
	// good row, REST for its values after the first.
	fill := strings.NewReplacer("ROW", string(row), "REST", string(row[strings.IndexByte(string(row), ',')+1:len(row)-1]))
	for _, d := range []struct {
		name, single, batch string
		status              int
	}{
		{"key in another case", `{"Model":"m","row":ROW}`, `{"Model":"m","rows":[ROW]}`, http.StatusOK},
		{"escaped string", `{"model":"m\u0031","row":ROW}`, `{"model":"m\u0031","rows":[ROW]}`, http.StatusNotFound},
		{"duplicate key", `{"model":"ghost","row":ROW,"model":"m"}`, `{"model":"ghost","rows":[ROW],"model":"m"}`, http.StatusOK},
		{"null row", `{"model":"m","row":null}`, `{"model":"m","rows":[null]}`, http.StatusBadRequest},
		{"float value", `{"model":"m","row":[1.0,REST]}`, `{"model":"m","rows":[[1.0,REST]]}`, http.StatusBadRequest},
		{"exponent value", `{"model":"m","row":[1e2,REST]}`, `{"model":"m","rows":[[1e2,REST]]}`, http.StatusBadRequest},
		{"leading zero", `{"model":"m","row":[01,REST]}`, `{"model":"m","rows":[[01,REST]]}`, http.StatusBadRequest},
		{"lone minus", `{"model":"m","row":[-,REST]}`, `{"model":"m","rows":[[-,REST]]}`, http.StatusBadRequest},
		{"20-digit value", `{"model":"m","row":[12345678901234567890,REST]}`, `{"model":"m","rows":[[12345678901234567890,REST]]}`, http.StatusBadRequest},
		{"garbage after the value", `{"model":"m","row":ROW} garbage`, `{"model":"m","rows":[ROW]} garbage`, http.StatusOK},
		{"leading whitespace", " \n\t{\"model\":\"m\",\"row\":ROW}", " \n\t{\"model\":\"m\",\"rows\":[ROW]}", http.StatusOK},
		{"empty body", ``, ``, http.StatusBadRequest},
	} {
		single, batch := "json boundary: "+d.name, "json batch boundary: "+d.name
		cases = append(cases,
			request{single, "/v1/assign", false, []byte(fill.Replace(d.single))},
			request{batch, "/v1/assign/batch", false, []byte(fill.Replace(d.batch))})
		status[single], status[batch] = d.status, d.status
	}
	if testenv.Nightly() {
		// Past the bound, 'R' frames need not hold rows: neither tier
		// decodes a body it could not read whole.
		huge := frames("m", "B")
		for len(huge) <= maxBodyBytes {
			huge = binary.AppendUvarint(append(huge, model.FrameRows), 8<<20)
			huge = append(huge, make([]byte, 8<<20)...)
		}
		cases = append(cases, request{"frame batch past the body bound", "/v1/assign/batch", true, append(huge, model.FrameEnd, 0)})
		// A JSON body is read whole before it is decoded, so one past the
		// bound is refused even when its first value is a good request.
		pad := bytes.Repeat([]byte(" "), maxBodyBytes)
		cases = append(cases,
			request{"json past the body bound", "/v1/assign", false, append([]byte(`{"model":"m","row":`+string(row)+`}`), pad...)},
			request{"json batch past the body bound", "/v1/assign/batch", false, append([]byte(`{"model":"m","rows":[`+string(row)+`]}`), pad...)})
	}
	for _, tc := range cases {
		send := func(url string) (*http.Response, []byte) {
			if tc.wire {
				return postWire(t, url+tc.path, tc.body)
			}
			return postJSONRaw(t, url+tc.path, string(tc.body))
		}
		gresp, gdata := send(gts.URL)
		sresp, sdata := send(soloTS.URL)
		if gresp.StatusCode != sresp.StatusCode || !bytes.Equal(gdata, sdata) {
			t.Errorf("%s: gateway %d %q, solo %d %q", tc.name, gresp.StatusCode, gdata, sresp.StatusCode, sdata)
		}
		if want, pinned := status[tc.name]; pinned && gresp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", tc.name, gresp.StatusCode, want)
		} else if !pinned && gresp.StatusCode < 400 {
			t.Errorf("%s: status %d, want an error", tc.name, gresp.StatusCode)
		}
	}
}

// wideRows builds n rows for a 200-feature model: four in-domain training
// values, then out-of-domain codes from 2^(IntSize−2) up, which take a
// 10-byte varint each on the wire where int is 64 bits (assign tolerates
// them; they score zero similarity).
func wideRows(train [][]int, n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		src := train[i%len(train)]
		row := make([]int, len(src))
		for f := range row {
			if f < 4 {
				row[f] = src[f]
				continue
			}
			row[f] = 1<<(strconv.IntSize-2) + i*len(src) + f
			if (i+f)%2 == 1 {
				row[f] = -row[f]
			}
		}
		rows[i] = row
	}
	return rows
}

// TestGatewayLargeBatchChunked sends a batch whose per-backend share is far
// beyond one frame's worth of rows. The gateway must cut each backend's
// share into bounded 'R' chunks — a single chunk past model.MaxFramePayload
// is refused by the backend — and still answer byte-identically to a solo
// backend, for frame and JSON clients alike. The PR-time size proves the
// bound on every upstream frame; MCDC_NIGHTLY=1 adds the full 18,000-row
// (36 MB) frame batch, whose shares would each overflow a single frame.
func TestGatewayLargeBatchChunked(t *testing.T) {
	snap, train, _ := trainModel(t, 60, 200, 3, 81)
	rec := &recordingTransport{}
	_, gts, backends, _ := gatewayFleetCfg(t, 2, Config{}, GatewayConfig{Transport: rec})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	checkUpstream := func(name string) {
		t.Helper()
		chunks := 0
		for _, u := range rec.assigns() {
			frames, err := model.SplitFrames(u.body, nil)
			if err != nil {
				t.Fatalf("%s: upstream body: %v", name, err)
			}
			for _, f := range frames {
				if f.Kind != model.FrameRows {
					continue
				}
				chunks++
				if len(f.Payload) > model.MaxBatchChunk {
					t.Fatalf("%s: upstream 'R' frame of %d bytes exceeds the %d-byte chunk bound", name, len(f.Payload), model.MaxBatchChunk)
				}
			}
		}
		if chunks < 3 {
			t.Fatalf("%s: %d upstream row chunks; the batch did not need chunking", name, chunks)
		}
	}

	n := 2000
	if testenv.Nightly() {
		n = 18000
	}
	rows := wideRows(train, n)
	buf := wireStream(t)
	appendFrame(t, buf, model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
	for lo := 0; lo < len(rows); lo += 1024 {
		appendFrame(t, buf, model.FrameRows, model.AppendRows(nil, rows[lo:min(lo+1024, len(rows))]))
	}
	appendFrame(t, buf, model.FrameEnd, nil)
	gresp, gdata := postWire(t, gts.URL+"/v1/assign/batch", buf.Bytes())
	sresp, sdata := postWire(t, soloTS.URL+"/v1/assign/batch", buf.Bytes())
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("frame batch of %d rows: gateway %d, solo %d (%.200s)", n, gresp.StatusCode, sresp.StatusCode, gdata)
	}
	if !bytes.Equal(gdata, sdata) {
		t.Fatalf("frame batch of %d rows: gateway answer is not byte-identical to the solo backend", n)
	}
	checkUpstream("frame batch")

	// A JSON body holds the same rows in one piece; the gateway chunks its
	// translation just the same.
	rows = rows[:2000]
	gresp, gdata = post(t, gts.URL+"/v1/assign/batch", map[string]any{"model": "m", "rows": rows})
	sresp, sdata = post(t, soloTS.URL+"/v1/assign/batch", map[string]any{"model": "m", "rows": rows})
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("json batch: gateway %d, solo %d (%.200s)", gresp.StatusCode, sresp.StatusCode, gdata)
	}
	if !bytes.Equal(gdata, sdata) {
		t.Fatal("json batch: gateway answer is not byte-identical to the solo backend")
	}
	checkUpstream("json batch")
}

// feedSessionWire is feedSession over the binary protocol: one single-frame
// request per row, returning the raw response streams.
func feedSessionWire(t *testing.T, url, id string, rows [][]int, from, to int) []string {
	t.Helper()
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		buf := wireStream(t)
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", id, rows[i%len(rows)]))
		resp, data := postWire(t, url+"/v1/assign", buf.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary assign row %d: %d %s", i, resp.StatusCode, data)
		}
		out = append(out, string(data))
	}
	return out
}

// TestGatewayRestartProbesOffRingSession pins the fleet probe for both
// codecs: a session born off its ring owner (the owner refused at create
// time) is known only to this gateway's overrides. A restarted gateway has
// lost them, so its first assign lands on the ring owner, which answers
// unknown_session; the gateway must find the session on the fleet and answer
// exactly as a solo daemon does.
func TestGatewayRestartProbesOffRingSession(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 83)
	frt := testenv.NewFaultRoundTripper(nil)
	gw, gts, backends, _ := gatewayFleetCfg(t, 3, Config{}, GatewayConfig{Transport: frt, Retries: -1})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	restart := func() string {
		next, err := NewGateway(GatewayConfig{Backends: gw.Backends()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(next.Handler())
		t.Cleanup(func() { ts.Close(); next.Close() })
		return ts.URL
	}
	for i, codec := range []string{"binary", "json"} {
		t.Run(codec, func(t *testing.T) {
			id := "offring-" + codec
			owner := sessionOwner(t, gts.URL, id)
			rule := frt.Add(&testenv.FaultRule{Host: owner, Kind: testenv.FaultKill})
			createSession(t, gts.URL, id, 40, int64(11+i))
			frt.Remove(rule)
			if got := sessionOwner(t, gts.URL, id); got == owner {
				t.Fatalf("session %s was created on its ring owner despite the fault", id)
			}
			createSession(t, soloTS.URL, id, 40, int64(11+i))

			url := restart()
			var got, want []string
			if codec == "binary" {
				got, want = feedSessionWire(t, url, id, rows, 0, 5), feedSessionWire(t, soloTS.URL, id, rows, 0, 5)
			} else {
				got, want = feedSession(t, url, id, rows, 0, 5), feedSession(t, soloTS.URL, id, rows, 0, 5)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("arrival %d through the restarted gateway:\n got  %q\n want %q", k, got[k], want[k])
				}
			}
		})
	}
}
