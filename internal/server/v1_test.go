package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestV1Aliases pins the versioning contract: every route is registered once,
// under its /v1 pattern, on a daemon and on a gateway alike. An unversioned
// spelling of a registered route gets the mux's plain 404, like any other
// unknown path, while its /v1 twin answers; and /v1/metrics counts every
// assign in one series under the /v1 label.
func TestV1Aliases(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 3)
	s, ts := newTestServer(t, Config{})
	_, gts, backends, _ := gatewayFleet(t, 2, Config{})
	for _, b := range append(backends, s) {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	send := func(method, url string, body any) (int, []byte) {
		if method == http.MethodGet {
			resp, data := get(t, url)
			return resp.StatusCode, data
		}
		resp, data := post(t, url, body)
		return resp.StatusCode, data
	}
	_, unknown := send(http.MethodGet, ts.URL+"/no-such-route", nil)

	type route struct {
		method, path string
		body         any
	}
	routes := []route{
		{http.MethodGet, "/healthz", nil},
		{http.MethodGet, "/models", nil},
		{http.MethodGet, "/metrics", nil},
		{http.MethodPost, "/assign", map[string]any{"model": "m", "row": rows[0]}},
		{http.MethodPost, "/assign/batch", map[string]any{"model": "m", "rows": rows[:2]}},
		{http.MethodPost, "/sessions", map[string]any{"session": "s1", "model": "m"}},
	}
	for _, tier := range []struct {
		name, url string
		routes    []route
	}{
		{"daemon", ts.URL, routes},
		{"gateway", gts.URL, append(routes, route{http.MethodGet, "/ring", nil})},
	} {
		for _, rt := range tier.routes {
			status, data := send(rt.method, tier.url+rt.path, rt.body)
			if status != http.StatusNotFound || !bytes.Equal(data, unknown) {
				t.Errorf("%s %s %s: %d %q, want the plain 404 %q", tier.name, rt.method, rt.path, status, data, unknown)
			}
			if status, data := send(rt.method, tier.url+"/v1"+rt.path, rt.body); status == http.StatusNotFound {
				t.Errorf("%s %s /v1%s: 404 %s", tier.name, rt.method, rt.path, data)
			}
		}
	}

	// Metrics: one series per endpoint under its /v1 label. The table's
	// assign and the two below, stateless and session, all count there.
	if r, d := post(t, ts.URL+"/v1/assign", map[string]any{"model": "m", "row": rows[1]}); r.StatusCode != http.StatusOK {
		t.Fatalf("stateless assign: %d %s", r.StatusCode, d)
	}
	if r, d := post(t, ts.URL+"/v1/assign", map[string]any{"session": "s1", "row": rows[2]}); r.StatusCode != http.StatusOK {
		t.Fatalf("session assign: %d %s", r.StatusCode, d)
	}
	_, mdata := get(t, ts.URL+"/v1/metrics")
	series := `mcdcd_http_requests_total{endpoint="POST /v1/assign"} `
	if n := strings.Count(string(mdata), series); n != 1 {
		t.Fatalf("metrics hold %d %q series, want 1:\n%s", n, series, mdata)
	}
	if want := series + "3\n"; !strings.Contains(string(mdata), want) {
		t.Fatalf("metrics missing %q:\n%s", want, mdata)
	}
}

// TestErrorEnvelopes pins the stable error-code table endpoint by endpoint:
// every failure answers {"error": ..., "code": ...} with the documented
// status and code.
func TestErrorEnvelopes(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 3)
	s, ts := newTestServer(t, Config{})
	if err := s.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	if r, d := post(t, ts.URL+"/v1/sessions", map[string]any{"session": "s1", "model": "m"}); r.StatusCode != http.StatusCreated {
		t.Fatalf("seed session: %d %s", r.StatusCode, d)
	}

	// A snapshot file stamped with a future format version, for the
	// version_mismatch row of the table.
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.bin")
	if err := snap.SaveFile(goodPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[9]++ // header is 8-byte magic + kind + version; bump the version
	badPath := filepath.Join(dir, "future.bin")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Malformed JSON is sent raw — it cannot ride the table's marshal path.
	resp0, err := http.Post(ts.URL+"/v1/assign", "application/json", strings.NewReader(`{"model":`))
	if err != nil {
		t.Fatal(err)
	}
	d0 := readAll(t, resp0)
	var env0 errorResponse
	if resp0.StatusCode != 400 || json.Unmarshal(d0, &env0) != nil || env0.Code != codeBadRequest {
		t.Fatalf("malformed json: %d %s, want 400 %q", resp0.StatusCode, d0, codeBadRequest)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"row schema", "POST", "/v1/assign", map[string]any{"model": "m", "row": []int{1}}, 400, codeBadRequest},
		{"model and session", "POST", "/v1/assign", map[string]any{"model": "m", "session": "s1", "row": rows[0]}, 400, codeBadRequest},
		{"neither model nor session", "POST", "/v1/assign", map[string]any{"row": rows[0]}, 400, codeBadRequest},
		{"assign unknown model", "POST", "/v1/assign", map[string]any{"model": "ghost", "row": rows[0]}, 404, codeUnknownModel},
		{"assign unknown session", "POST", "/v1/assign", map[string]any{"session": "ghost", "row": rows[0]}, 404, codeUnknownSession},
		{"batch unknown model", "POST", "/v1/assign/batch", map[string]any{"model": "ghost", "rows": rows[:2]}, 404, codeUnknownModel},
		{"batch empty", "POST", "/v1/assign/batch", map[string]any{"model": "m", "rows": [][]int{}}, 400, codeBadRequest},
		{"session for unknown model", "POST", "/v1/sessions", map[string]any{"session": "s2", "model": "ghost"}, 404, codeUnknownModel},
		{"duplicate session", "POST", "/v1/sessions", map[string]any{"session": "s1", "model": "m"}, 409, codeConflict},
		{"delete unknown session", "DELETE", "/v1/sessions/ghost", nil, 404, codeUnknownSession},
		{"delete unknown model", "DELETE", "/v1/models/ghost", nil, 404, codeUnknownModel},
		{"load unreadable snapshot", "POST", "/v1/models", map[string]any{"name": "x", "path": filepath.Join(dir, "missing.bin")}, 400, codeBadRequest},
		{"load future snapshot", "POST", "/v1/models", map[string]any{"name": "x", "path": badPath}, 422, codeVersionMismatch},
	}
	for _, tc := range cases {
		var resp *http.Response
		var data []byte
		switch tc.method {
		case "POST":
			resp, data = post(t, ts.URL+tc.path, tc.body)
		case "DELETE":
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+tc.path, nil)
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data = readAll(t, r)
			resp = r
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var env errorResponse
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s: body is not an envelope: %v (%s)", tc.name, err, data)
			continue
		}
		if env.Code != tc.code {
			t.Errorf("%s: code %q, want %q (error %q)", tc.name, env.Code, tc.code, env.Error)
		}
		if env.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
