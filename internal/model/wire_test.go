package model

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestWireHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWireHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadWireHeader(&buf); err != nil {
		t.Fatal(err)
	}

	// Bad magic.
	if err := ReadWireHeader(bytes.NewReader([]byte("NOTAWIRE\x01"))); !errors.Is(err, ErrNotWire) {
		t.Fatalf("bad magic: %v", err)
	}
	// Truncated header.
	if err := ReadWireHeader(bytes.NewReader([]byte("MCDC"))); !errors.Is(err, ErrNotWire) {
		t.Fatalf("short header: %v", err)
	}
	// Alien version fails fast with the typed error, naming both versions —
	// the wire twin of the snapshot format-version policy.
	alien := append(append([]byte(nil), wireMagic...), WireVersion+9)
	var verr *WireVersionError
	if err := ReadWireHeader(bytes.NewReader(alien)); !errors.As(err, &verr) {
		t.Fatalf("alien version: %v", err)
	} else if verr.Got != WireVersion+9 || verr.Want != WireVersion {
		t.Fatalf("version error carries %d/%d", verr.Got, verr.Want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 100000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte('A'+i), p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		kind, got, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != byte('A'+i) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: kind %c, %d bytes", i, kind, len(got))
		}
	}
	if _, _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("stream end: %v", err)
	}

	// A frame truncated mid-payload is an unexpected EOF, not a clean end.
	var tr bytes.Buffer
	if err := WriteFrame(&tr, FrameAssign, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	cut := tr.Bytes()[:tr.Len()-3]
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(cut)), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}

	// A hostile length beyond MaxFramePayload is rejected before allocation.
	hostile := []byte{FrameRows, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hostile)), nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestFrameIOAllocations pins the allocation-free frame path: writing a
// frame into a *bufio.Writer or a *bytes.Buffer allocates nothing, and a
// reader that hands each payload back to ReadFrame reads a whole stream into
// one buffer.
func TestFrameIOAllocations(t *testing.T) {
	payload := AppendAssignRequest(nil, "syn", "", []int{1, 0, 3, 2, 1, 0, 4, 2})
	bw := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(200, func() { _ = WriteFrame(bw, FrameAssign, payload) }); n != 0 {
		t.Fatalf("WriteFrame into a *bufio.Writer: %v allocs, want 0", n)
	}
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	if n := testing.AllocsPerRun(200, func() { _ = WriteFrame(&buf, FrameAssign, payload) }); n != 0 {
		t.Fatalf("WriteFrame into a *bytes.Buffer: %v allocs, want 0", n)
	}

	// Frames of growing, then shrinking size: the buffer grows to the
	// largest and is reused from there on.
	var stream bytes.Buffer
	sizes := []int{3, 10, 64, 5, 64, 0, 7}
	for i, n := range sizes {
		if err := WriteFrame(&stream, byte('A'+i), bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&stream)
	var last []byte
	grew := 0
	for i, n := range sizes {
		kind, got, err := ReadFrame(br, last)
		if err != nil {
			t.Fatal(err)
		}
		if kind != byte('A'+i) || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, n)) {
			t.Fatalf("frame %d: kind %c, payload %v", i, kind, got)
		}
		if cap(got) > 0 && (cap(last) == 0 || &got[:1][0] != &last[:1][0]) {
			grew++
		}
		last = got
	}
	if grew != 3 { // 3, 10 and 64 bytes; the rest fit
		t.Fatalf("payload buffer allocated %d times, want 3", grew)
	}
}

// TestSplitFrames pins the in-place splitter: the frames ReadFrame reads,
// payloads aliasing the stream and capped at their own length, and
// ReadWireHeader's and ReadFrame's errors for a bad stream.
func TestSplitFrames(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteWireHeader(&stream); err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("first"), nil, []byte("third")}
	for _, p := range payloads {
		if err := WriteFrame(&stream, FrameAssign, p); err != nil {
			t.Fatal(err)
		}
	}
	data := stream.Bytes()
	frames, err := SplitFrames(data, nil)
	if err != nil || len(frames) != len(payloads) {
		t.Fatalf("split: %d frames, err %v", len(frames), err)
	}
	for i, f := range frames {
		if f.Kind != FrameAssign || !bytes.Equal(f.Payload, payloads[i]) || cap(f.Payload) != len(f.Payload) {
			t.Fatalf("frame %d: kind %c, payload %q (cap %d)", i, f.Kind, f.Payload, cap(f.Payload))
		}
	}
	frames[0].Payload[0] = 'F'
	if !bytes.Contains(data, []byte("First")) {
		t.Fatal("payload does not alias the stream")
	}
	if n := testing.AllocsPerRun(100, func() { frames, _ = SplitFrames(data, frames[:0]) }); n != 0 {
		t.Fatalf("SplitFrames into a roomy dst: %v allocs, want 0", n)
	}

	for name, bad := range map[string][]byte{
		"bad magic":   []byte("NOTAWIRE\x01"),
		"bad version": []byte("MCDCWIRE\x07"),
		"truncated":   data[:len(data)-2],
		"oversize":    append(append([]byte("MCDCWIRE\x01"), FrameRows), 0xff, 0xff, 0xff, 0xff, 0x7f),
	} {
		var want error
		br := bufio.NewReader(bytes.NewReader(bad))
		if want = ReadWireHeader(br); want == nil {
			for want == nil {
				_, _, want = ReadFrame(br, nil)
			}
		}
		if _, err := SplitFrames(bad, nil); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: SplitFrames error %v, want %v", name, err, want)
		}
	}
}

func TestAssignRequestRoundTrip(t *testing.T) {
	cases := []struct {
		model, session string
		row            []int
	}{
		{"m", "", []int{0, 1, 2}},
		{"", "sess-1", []int{5}},
		{"m", "", []int{99, -3, 0, 1, 2}}, // out-of-domain negatives survive zigzag
		{"m", "", nil},
	}
	for _, c := range cases {
		payload := AppendAssignRequest(nil, c.model, c.session, c.row)
		m, s, row, err := DecodeAssignRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if m != c.model || s != c.session || !reflect.DeepEqual(row, c.row) {
			t.Fatalf("round trip: %q %q %v → %q %q %v", c.model, c.session, c.row, m, s, row)
		}
	}
	// Trailing garbage is an error, not silently ignored.
	payload := AppendAssignRequest(nil, "m", "", []int{1})
	if _, _, _, err := DecodeAssignRequest(append(payload, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, _, _, err := DecodeAssignRequest(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	cases := []struct {
		a     Assignment
		epoch int
	}{
		{Assignment{Cluster: 3, Similarity: 0.875, Encoding: []int{1, 0, 2}}, 4},
		{Assignment{Cluster: 0, Similarity: 1}, 0},                    // nil encoding (session path)
		{Assignment{Cluster: 1, Similarity: 1.0 / 3.0}, 2},            // non-dyadic float survives bit-exactly
		{Assignment{Cluster: 2, Similarity: math.Nextafter(1, 0)}, 1}, // ulp below 1
	}
	for _, c := range cases {
		a, epoch, err := DecodeResult(AppendResult(nil, c.a, c.epoch))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != c.epoch || a.Cluster != c.a.Cluster || !reflect.DeepEqual(a.Encoding, c.a.Encoding) {
			t.Fatalf("round trip: %+v/%d → %+v/%d", c.a, c.epoch, a, epoch)
		}
		if math.Float64bits(a.Similarity) != math.Float64bits(c.a.Similarity) {
			t.Fatalf("similarity not bit-exact: %x vs %x", math.Float64bits(a.Similarity), math.Float64bits(c.a.Similarity))
		}
	}
}

func TestBatchFramesRoundTrip(t *testing.T) {
	name, err := DecodeBatchStart(AppendBatchStart(nil, "vote"))
	if err != nil || name != "vote" {
		t.Fatalf("batch start: %q %v", name, err)
	}
	m, epoch, err := DecodeBatchInfo(AppendBatchInfo(nil, "vote", 7))
	if err != nil || m != "vote" || epoch != 7 {
		t.Fatalf("batch info: %q %d %v", m, epoch, err)
	}

	rows := [][]int{{0, 1, 2}, {2, 1, 0}, {-1, 5, 3}}
	got, err := DecodeRows(AppendRows(nil, rows))
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows: %v %v", got, err)
	}

	as := []Assignment{
		{Cluster: 0, Similarity: 0.5, Encoding: []int{0, 1}},
		{Cluster: 2, Similarity: 1, Encoding: []int{2, 2}},
	}
	dec, err := DecodeResults(AppendResults(nil, as), nil)
	if err != nil || !reflect.DeepEqual(dec, as) {
		t.Fatalf("results: %v %v", dec, err)
	}

	// Corrupt counts fail instead of allocating absurdly.
	if _, err := DecodeRows([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("corrupt rows count accepted")
	}
	if _, err := DecodeResults([]byte{0xFF, 0xFF, 0xFF, 0x7F}, nil); err == nil {
		t.Fatal("corrupt results count accepted")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	code, msg, err := DecodeError(AppendError(nil, "unknown_model", `no model "ghost"`))
	if err != nil {
		t.Fatal(err)
	}
	if code != "unknown_model" || msg != `no model "ghost"` {
		t.Fatalf("error frame: %q %q", code, msg)
	}
}
