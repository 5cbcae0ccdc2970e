package model

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"unicode/utf8"
)

// assignResponse and batchResponse are the reply types the daemon encoded
// with json.Encoder before the hand-written encoders: the reference the
// appenders must match byte for byte.
type (
	assignResponse struct {
		Cluster    int     `json:"cluster"`
		Similarity float64 `json:"similarity"`
		Epoch      int     `json:"epoch"`
		Encoding   []int   `json:"encoding,omitempty"`
	}
	batchResponse struct {
		Model       string           `json:"model"`
		Epoch       int              `json:"epoch"`
		Assignments []assignResponse `json:"assignments"`
	}
)

// encodeJSON is what json.Encoder writes for v, or nil when it refuses v.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if json.NewEncoder(&buf).Encode(v) != nil {
		return nil
	}
	return buf.Bytes()
}

// sameReply compares replies with float identity by bit pattern, so that
// -0 and 0 differ.
func sameReply(a, b Reply) bool {
	return a.Cluster == b.Cluster && a.Epoch == b.Epoch &&
		math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity) &&
		reflect.DeepEqual(a.Encoding, b.Encoding)
}

func sameReplies(a, b []Reply) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameReply(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzAssignJSON checks the JSON assignment codec against encoding/json.
//
// For any body, each scanner declines or yields exactly what encoding/json
// yields for it: the request scanners against a decoder that refuses unknown
// fields, as the daemon's, the reply scanners against a plain one, as the
// client's. For any model name, cluster, similarity, epoch and encoding, each
// appender writes exactly json.Encoder's bytes for the reply types the daemon
// used to encode, or fails where json.Encoder fails (a similarity that is
// not finite); the reply decoders read the appenders' output back bit for
// bit, and the request decoders read the request appenders' output back as
// the frame payload the same request makes; the request appenders write
// what json.Marshal made of the client's request maps. Encoding values come
// from the bytes of enc, one signed value each.
func FuzzAssignJSON(f *testing.F) {
	f.Add([]byte(`{"model":"m","row":[1,-2,3]}`), "m", 2, math.Float64bits(0.75), 7, []byte{1, 0, 2})
	f.Fuzz(func(t *testing.T, body []byte, name string, cluster int, simBits uint64, epoch int, enc []byte) {
		checkJSONDecoders(t, body)
		var encoding []int
		for _, v := range enc {
			encoding = append(encoding, int(int8(v)))
		}
		checkJSONEncoders(t, name, cluster, math.Float64frombits(simBits), epoch, encoding)
	})
}

func checkJSONDecoders(t *testing.T, body []byte) {
	t.Helper()
	if got, ok := scanAssign(nil, body); ok {
		var req assignRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatalf("assign %q: scanned, but encoding/json fails: %v", body, err)
		}
		if want := AppendAssignRequest(nil, req.Model, req.Session, req.Row); !bytes.Equal(got, want) {
			t.Fatalf("assign %q: scanned payload %x, encoding/json's %x", body, got, want)
		}
	}
	if name, rows, ok := scanBatch(body); ok {
		var req batchRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatalf("batch %q: scanned, but encoding/json fails: %v", body, err)
		}
		if name != req.Model || !reflect.DeepEqual(rows, req.Rows) {
			t.Fatalf("batch %q: scanned %q %#v, encoding/json's %q %#v", body, name, rows, req.Model, req.Rows)
		}
		for i := range rows {
			if cap(rows[i]) != len(rows[i]) {
				t.Fatalf("batch %q: row %d has room to grow into its neighbour", body, i)
			}
		}
	}
	if got, ok := scanResult(body); ok {
		var want Reply
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("reply %q: scanned, but encoding/json fails: %v", body, err)
		}
		if !sameReply(got, want) {
			t.Fatalf("reply %q: scanned %#v, encoding/json's %#v", body, got, want)
		}
	}
	if name, epoch, replies, ok := scanBatchReply(body); ok {
		var want batchReply
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("batch reply %q: scanned, but encoding/json fails: %v", body, err)
		}
		if name != want.Model || epoch != want.Epoch || !sameReplies(replies, want.Assignments) {
			t.Fatalf("batch reply %q: scanned %q %d %#v, encoding/json's %#v", body, name, epoch, replies, want)
		}
	}
}

func checkJSONEncoders(t *testing.T, name string, cluster int, sim float64, epoch int, encoding []int) {
	t.Helper()
	// Every int the scanners read back has at most 18 digits.
	small := func(v int) bool { return int64(v) > -1e18 && int64(v) < 1e18 }
	plain := small(cluster) && small(epoch) && small(epoch+1) && small(cluster+1)

	a := Assignment{Cluster: cluster, Similarity: sim, Encoding: encoding}
	want := encodeJSON(assignResponse{Cluster: cluster, Similarity: sim, Epoch: epoch, Encoding: encoding})
	got, err := AppendResultJSON([]byte("prefix"), AppendResult(nil, a, epoch))
	switch {
	case want == nil && err == nil:
		t.Fatalf("single %+v: json.Encoder fails, AppendResultJSON wrote %q", a, got)
	case want != nil && err != nil:
		t.Fatalf("single %+v: AppendResultJSON fails: %v", a, err)
	case want != nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("single %+v: appended %q, json.Encoder wrote %q", a, got, want)
	}
	if want != nil {
		in := Reply{Cluster: cluster, Similarity: sim, Epoch: epoch, Encoding: encoding}
		r, ok := scanResult(want)
		if plain && !ok {
			t.Fatalf("single %q: scanner declined", want)
		}
		if back, err := DecodeResultJSON(want); err != nil || !sameReply(back, in) || ok && !sameReply(r, in) {
			t.Fatalf("single %q: read back %#v (%v), scanned %#v, want %#v", want, back, err, r, in)
		}
	}

	// A batch of two: the assignment, then one with its fields moved about.
	b := Assignment{Cluster: epoch, Similarity: sim / 3, Encoding: slices.Clone(encoding[:len(encoding)/2])}
	epochOf := func(i int) int { return epoch + i }
	want = encodeJSON(batchResponse{Model: name, Epoch: epoch, Assignments: []assignResponse{
		{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding},
		{Cluster: b.Cluster, Similarity: b.Similarity, Epoch: epoch + 1, Encoding: b.Encoding},
	}})
	got, err = AppendBatchReplyJSON(nil, name, []Assignment{a, b}, epochOf)
	switch {
	case want == nil && err == nil:
		t.Fatalf("batch %q %+v %+v: json.Encoder fails, AppendBatchReplyJSON wrote %q", name, a, b, got)
	case want != nil && err != nil:
		t.Fatalf("batch %q %+v %+v: AppendBatchReplyJSON fails: %v", name, a, b, err)
	case want != nil && !bytes.Equal(got, want):
		t.Fatalf("batch %q %+v %+v: appended %q, json.Encoder wrote %q", name, a, b, got, want)
	}
	if want != nil {
		in := []Reply{
			{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding},
			{Cluster: b.Cluster, Similarity: b.Similarity, Epoch: epoch + 1, Encoding: b.Encoding},
		}
		for i := range in {
			if len(in[i].Encoding) == 0 {
				in[i].Encoding = nil // omitted, so read back as absent
			}
		}
		gotName, gotEpoch, replies, ok := scanBatchReply(want)
		if plain && !ok && plainString(name) {
			t.Fatalf("batch %q: scanner declined", want)
		}
		if ok && (gotName != name || gotEpoch != epoch || !sameReplies(replies, in)) {
			t.Fatalf("batch %q: scanned %q %d %#v", want, gotName, gotEpoch, replies)
		}
		if back, err := DecodeBatchReplyJSON(want); err != nil || !sameReplies(back, in) {
			t.Fatalf("batch %q: read back %#v (%v), want %#v", want, back, err, in)
		}
	}

	// Requests: what the client writes, the daemon reads back as the frame
	// a frame client sends, whenever JSON can carry the name unchanged.
	if !utf8.ValidString(name) {
		return
	}
	// The client used to marshal its requests from maps; but for a nil row,
	// which it wrote as null, the appenders write the same bytes.
	for _, target := range [][2]string{{name, ""}, {"", name}} {
		body := AppendAssignJSON(nil, target[0], target[1], encoding)
		payload, err := DecodeAssignJSON(nil, body)
		if want := AppendAssignRequest(nil, target[0], target[1], encoding); err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("request %q: read back %x (%v), want %x", body, payload, err, want)
		}
		in := map[string]any{"row": encoding}
		if target[0] != "" {
			in["model"] = target[0]
		}
		if target[1] != "" {
			in["session"] = target[1]
		}
		if want, _ := json.Marshal(in); encoding != nil && !bytes.Equal(body, want) {
			t.Fatalf("request %q, json.Marshal wrote %q", body, want)
		}
	}
	if want, _ := json.Marshal(map[string]any{"model": name, "rows": [][]int{encoding}}); encoding != nil && !bytes.Equal(AppendBatchJSON(nil, name, [][]int{encoding}), want) {
		t.Fatalf("batch request %q, json.Marshal wrote %q", AppendBatchJSON(nil, name, [][]int{encoding}), want)
	}
	rows := [][]int{encoding, b.Encoding, nil}
	body := AppendBatchJSON(nil, name, rows)
	gotName, gotRows, err := DecodeBatchJSON(body)
	if err != nil || gotName != name || len(gotRows) != len(rows) {
		t.Fatalf("batch request %q: read back %q %v (%v)", body, gotName, gotRows, err)
	}
	for i := range rows {
		if !slices.Equal(gotRows[i], rows[i]) {
			t.Fatalf("batch request %q: row %d read back as %v", body, i, gotRows[i])
		}
	}
}
