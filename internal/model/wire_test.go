package model

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// randomBatch draws a batch for the stream property tests: no rows, a few
// short rows, or a batch of several MaxBatchChunk chunks; values may be
// negative and rows empty.
func randomBatch(rng *rand.Rand) [][]int {
	var n, width int
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		n, width = 1+rng.Intn(40), 8
	default:
		n, width = 2500+rng.Intn(1500), 120
	}
	rows := make([][]int, n)
	for i := range rows {
		row := make([]int, rng.Intn(width+1))
		for f := range row {
			row[f] = rng.Intn(1<<20) - 1<<19
		}
		rows[i] = row
	}
	return rows
}

// randomAssignments draws n assignments whose similarities include NaN, ±Inf
// and -0; an empty encoding is nil, as it decodes.
func randomAssignments(rng *rand.Rand, n int) []Assignment {
	sims := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5}
	as := make([]Assignment, n)
	for i := range as {
		as[i] = Assignment{Cluster: rng.Intn(9) - 2, Similarity: rng.Float64()}
		if rng.Intn(4) == 0 {
			as[i].Similarity = sims[rng.Intn(len(sims))]
		}
		for range rng.Intn(4) {
			as[i].Encoding = append(as[i].Encoding, rng.Intn(7)-1)
		}
	}
	return as
}

// TestBatchStreamsRoundTrip is the property test for the batch stream
// grammar: random batches survive AppendBatchFrames → SplitFrames →
// DecodeBatchFrames with every 'R' payload within MaxBatchChunk, and their
// replies survive AppendBatchReplyFrames → DecodeBatchReplyFrames with one
// 'r' per non-empty chunk and NaN-safe float identity. Both appenders leave
// the bytes already in their buffer alone.
func TestBatchStreamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	multi := 0
	for trial := 0; trial < 60; trial++ {
		rows := randomBatch(rng)
		prefix := []byte("keep")
		stream := AppendBatchFrames(prefix, "vote", rows)
		if !bytes.HasPrefix(stream, prefix) {
			t.Fatalf("trial %d: AppendBatchFrames overwrote its buffer", trial)
		}
		frames, err := SplitFrames(stream[len(prefix):], nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		chunkFrames := 0
		for _, f := range frames {
			if f.Kind == FrameRows {
				chunkFrames++
				if len(f.Payload) > MaxBatchChunk {
					t.Fatalf("trial %d: 'R' payload of %d bytes past the %d bound", trial, len(f.Payload), MaxBatchChunk)
				}
			}
		}
		if len(rows) == 0 && chunkFrames != 0 {
			t.Fatalf("trial %d: %d 'R' frames for no rows", trial, chunkFrames)
		}
		if chunkFrames > 1 {
			multi++
		}
		name, chunks, err := DecodeBatchFrames(frames)
		if err != nil || name != "vote" || len(chunks) != chunkFrames {
			t.Fatalf("trial %d: %q, %d chunks for %d 'R' frames, err %v", trial, name, len(chunks), chunkFrames, err)
		}
		got := slices.Concat(chunks...)
		if len(got) != len(rows) {
			t.Fatalf("trial %d: %d rows back, want %d", trial, len(got), len(rows))
		}
		for i := range rows {
			if !slices.Equal(got[i], rows[i]) {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, i, got[i], rows[i])
			}
		}

		asgs := randomAssignments(rng, len(rows))
		epoch := int(rng.Int63n(1<<40) - 1<<39)
		reply := AppendBatchReplyFrames(prefix, "vote", epoch, chunks, asgs)
		if !bytes.HasPrefix(reply, prefix) {
			t.Fatalf("trial %d: AppendBatchReplyFrames overwrote its buffer", trial)
		}
		replyFrames, err := SplitFrames(reply[len(prefix):], nil)
		if err != nil {
			t.Fatalf("trial %d: reply: %v", trial, err)
		}
		results := 0
		for _, f := range replyFrames {
			if f.Kind == FrameResults {
				results++
			}
		}
		nonEmpty := 0
		for _, c := range chunks {
			if len(c) > 0 {
				nonEmpty++
			}
		}
		if results != nonEmpty {
			t.Fatalf("trial %d: %d 'r' frames for %d non-empty chunks", trial, results, nonEmpty)
		}
		epoch2, asgs2, err := DecodeBatchReplyFrames(reply[len(prefix):])
		if err != nil || epoch2 != epoch || len(asgs2) != len(asgs) {
			t.Fatalf("trial %d: reply epoch %d (want %d), %d assignments (want %d), err %v", trial, epoch2, epoch, len(asgs2), len(asgs), err)
		}
		for i := range asgs {
			if !sameAssignment(asgs2[i], asgs[i]) {
				t.Fatalf("trial %d: assignment %d = %+v, want %+v", trial, i, asgs2[i], asgs[i])
			}
		}
	}
	if multi == 0 {
		t.Fatal("no trial spanned several chunks")
	}

	// A row whose own data passes the bound travels alone.
	huge := make([]int, MaxBatchChunk/10)
	frames, err := SplitFrames(AppendBatchFrames(nil, "vote", [][]int{{1}, huge, {2}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, f := range frames {
		if f.Kind == FrameRows {
			rows, err := DecodeRows(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, len(rows))
		}
	}
	if !slices.Equal(sizes, []int{1, 1, 1}) {
		t.Fatalf("chunk row counts %v around an oversized row, want [1 1 1]", sizes)
	}
}

// TestBatchStreamsRefuseBadGrammar pins what each stream decoder says about
// a stream outside its grammar.
func TestBatchStreamsRefuseBadGrammar(t *testing.T) {
	frame := func(kind byte, payload []byte) Frame { return Frame{Kind: kind, Payload: payload} }
	start, rows := frame(FrameBatchStart, AppendBatchStart(nil, "m")), frame(FrameRows, AppendRows(nil, [][]int{{1}}))
	end := frame(FrameEnd, nil)
	for _, tc := range []struct {
		frames []Frame
		want   string
	}{
		{nil, "batch stream must open with a batch-start frame"},
		{[]Frame{rows, end}, "batch stream must open with a batch-start frame"},
		{[]Frame{start, rows}, "batch stream ended without an end frame"},
		{[]Frame{start, end, rows, end}, "frames after the end frame"},
		{[]Frame{start, frame(FrameAssign, nil), end}, `unexpected frame kind 'A' in batch stream`},
		{[]Frame{start, frame(FrameRows, []byte{0xff}), end}, "model: truncated wire payload at rows count"},
	} {
		if _, _, err := DecodeBatchFrames(tc.frames); errText(err) != tc.want {
			t.Errorf("DecodeBatchFrames(%q): %v, want %q", tc.frames, err, tc.want)
		}
	}

	stream := func(frames ...Frame) []byte {
		var buf bytes.Buffer
		_ = WriteWireHeader(&buf)
		for _, f := range frames {
			_ = WriteFrame(&buf, f.Kind, f.Payload)
		}
		return buf.Bytes()
	}
	info, results := frame(FrameBatchInfo, AppendBatchInfo(nil, "m", 1)), frame(FrameResults, AppendResults(nil, []Assignment{{Cluster: 1}}))
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{[]byte("MCDCWIRE\x02"), "model: wire protocol version 2, this build speaks version 1 — upgrade one side or fall back to JSON"},
		{stream(), "batch reply must open with a batch-info frame"},
		{stream(results, end), "batch reply must open with a batch-info frame"},
		{stream(info, results), "batch reply ended without an end frame"},
		{stream(info, end, results, end), "frames after the end frame"},
		{stream(info, frame(FrameError, AppendError(nil, "bad_request", "no")), end), `unexpected frame kind '!' in batch reply`},
	} {
		if _, _, err := DecodeBatchReplyFrames(tc.data); errText(err) != tc.want {
			t.Errorf("DecodeBatchReplyFrames(%q): %v, want %q", tc.data, err, tc.want)
		}
	}
}

// TestDecodeResultsCarvesEncodings pins what the batch reply decoder costs
// and what it hands out: a 256-assignment reply decodes in a handful of
// allocations, not one per encoding, and the encodings it carves from one
// backing array stay apart — appending to one leaves its neighbour intact.
func TestDecodeResultsCarvesEncodings(t *testing.T) {
	asgs := make([]Assignment, 256)
	for i := range asgs {
		asgs[i] = Assignment{Cluster: i % 7, Similarity: float64(i) / 256, Encoding: []int{i % 5, -i, 1000 * i}}
	}
	asgs[3].Encoding = nil
	reply := AppendBatchReplyFrames(nil, "m", 4, [][][]int{make([][]int, len(asgs))}, asgs)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeBatchReplyFrames(reply); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding a %d-assignment reply costs %.0f allocations, want ≤ 8", len(asgs), allocs)
	}
	_, got, err := DecodeBatchReplyFrames(reply)
	if err != nil || len(got) != len(asgs) {
		t.Fatalf("decoded %d assignments, err %v", len(got), err)
	}
	if got[3].Encoding != nil {
		t.Errorf("an empty encoding decodes as %#v, want nil", got[3].Encoding)
	}
	_ = append(got[0].Encoding, 7, 7, 7)
	for i := range asgs {
		if !sameAssignment(got[i], asgs[i]) {
			t.Fatalf("assignment %d: %+v, want %+v", i, got[i], asgs[i])
		}
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
