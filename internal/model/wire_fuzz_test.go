package model

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
)

// fuzzSeedStream builds a well-formed wire stream covering every frame kind,
// used both as an f.Add seed and by the committed corpus generator.
func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	if err := WriteWireHeader(&buf); err != nil {
		panic(err)
	}
	must := func(kind byte, payload []byte) {
		if err := WriteFrame(&buf, kind, payload); err != nil {
			panic(err)
		}
	}
	must(FrameAssign, AppendAssignRequest(nil, "m", "", []int{1, -1, 3, 70000}))
	must(FrameBatchStart, AppendBatchStart(nil, "m"))
	must(FrameRows, AppendRows(nil, [][]int{{0, 1}, {-1, -9}, nil}))
	must(FrameBatchInfo, AppendBatchInfo(nil, "m", 3))
	must(FrameResults, AppendResults(nil, []Assignment{
		{Cluster: 1, Similarity: 0.25, Encoding: []int{0, 2}},
		{Cluster: 0, Similarity: math.Inf(1)},
	}))
	must(FrameResult, AppendResult(nil, Assignment{Cluster: 2, Similarity: 0.5, Encoding: []int{1, 0}}, 7))
	must(FrameError, AppendError(nil, "model_not_found", "no such model"))
	must(FrameEnd, nil)
	return buf.Bytes()
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameAssignment compares assignments with NaN-safe float identity (the wire
// codec promises the IEEE bit pattern survives, which DeepEqual can't check).
func sameAssignment(a, b Assignment) bool {
	return a.Cluster == b.Cluster &&
		math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity) &&
		reflect.DeepEqual(a.Encoding, b.Encoding)
}

// fuzzSeedBatches returns a batch request stream and its reply stream, used
// both as f.Add seeds and by the committed corpus generator.
func fuzzSeedBatches() (request, reply []byte) {
	chunks := [][][]int{{{0, 1}, {-1, -9}, nil}}
	request = AppendBatchFrames(nil, "m", chunks[0])
	reply = AppendBatchReplyFrames(nil, "m", 3, chunks, []Assignment{
		{Cluster: 1, Similarity: 0.25, Encoding: []int{0, 2}},
		{Cluster: 0, Similarity: math.NaN()},
		{Cluster: 2, Similarity: math.Inf(-1), Encoding: []int{-1}},
	})
	return request, reply
}

// FuzzWireFrames throws arbitrary bytes at the stream reader, the in-place
// splitter, the two batch stream decoders, and every payload decoder.
// Invariants: no panics, no runaway allocations (the MaxFramePayload guard),
// SplitFrames agrees with ReadWireHeader+ReadFrame frame for frame — same
// kinds, same payload bytes, same error text — and, whenever a stream or a
// payload decodes cleanly, the decode→re-encode→re-decode round trip is
// lossless. (Byte-level canonicality is NOT an invariant: uvarints accept
// non-minimal encodings, and a batch is re-chunked, so the second decode is
// compared, not the re-encoded bytes.)
func FuzzWireFrames(f *testing.F) {
	valid := fuzzSeedStream()
	f.Add(valid)
	batch, batchReply := fuzzSeedBatches()
	f.Add(batch)
	f.Add(batchReply)
	f.Add(valid[:len(valid)-3]) // truncated mid-frame
	f.Add([]byte("MCDCWIRE\x02"))
	f.Add([]byte("NOTAWIRE\x01"))
	f.Add(append(append([]byte("MCDCWIRE\x01"), FrameAssign), 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var read []Frame
		br := bufio.NewReader(bytes.NewReader(data))
		readErr := ReadWireHeader(br)
		var buf []byte // reused, as a streaming reader does: read keeps copies
		for readErr == nil {
			kind, payload, err := ReadFrame(br, buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			buf = payload
			read = append(read, Frame{Kind: kind, Payload: append([]byte(nil), payload...)})
		}
		split, splitErr := SplitFrames(data, nil)
		if errText(splitErr) != errText(readErr) {
			t.Fatalf("SplitFrames error %q, ReadFrame error %q", errText(splitErr), errText(readErr))
		}
		if len(split) != len(read) {
			t.Fatalf("SplitFrames found %d frames, ReadFrame %d", len(split), len(read))
		}
		for i := range read {
			if split[i].Kind != read[i].Kind || !bytes.Equal(split[i].Payload, read[i].Payload) {
				t.Fatalf("frame %d: SplitFrames (%q, %x), ReadFrame (%q, %x)", i, split[i].Kind, split[i].Payload, read[i].Kind, read[i].Payload)
			}
		}
		if splitErr == nil {
			if name, chunks, err := DecodeBatchFrames(split); err == nil {
				rows := slices.Concat(chunks...)
				frames2, err2 := SplitFrames(AppendBatchFrames(nil, name, rows), nil)
				name2, chunks2, err3 := DecodeBatchFrames(frames2)
				rows2 := slices.Concat(chunks2...)
				if err2 != nil || err3 != nil || name2 != name || !slices.EqualFunc(rows2, rows, slices.Equal) {
					t.Fatalf("batch round trip: (%q,%v) → (%q,%v), err %v %v", name, rows, name2, rows2, err2, err3)
				}
			}
		}
		if epoch, as, err := DecodeBatchReplyFrames(data); err == nil {
			epoch2, as2, err2 := DecodeBatchReplyFrames(AppendBatchReplyFrames(nil, "", epoch, [][][]int{make([][]int, len(as))}, as))
			if err2 != nil || epoch2 != epoch || len(as2) != len(as) {
				t.Fatalf("batch reply round trip: %d assignments at epoch %d → %d at %d, err %v", len(as), epoch, len(as2), epoch2, err2)
			}
			for i := range as {
				if !sameAssignment(as[i], as2[i]) {
					t.Fatalf("batch reply round trip: assignment %d: %+v → %+v", i, as[i], as2[i])
				}
			}
		}
		if len(read) > 1<<10 {
			read = read[:1<<10]
		}
		var scratch AssignRequest // reused across frames, as the backend does
		for _, fr := range read {
			kind, payload := fr.Kind, fr.Payload
			switch kind {
			case FrameAssign:
				m, s, row, err := DecodeAssignRequest(payload)
				if errIn := scratch.Decode(payload); errText(errIn) != errText(err) ||
					err == nil && (string(scratch.Model) != m || string(scratch.Session) != s || !slices.Equal(scratch.Row, row)) {
					t.Fatalf("in-place decode: (%q,%q,%v) err %v, DecodeAssignRequest (%q,%q,%v) err %v",
						scratch.Model, scratch.Session, scratch.Row, errIn, m, s, row, err)
				}
				if err == nil {
					m2, s2, row2, err2 := DecodeAssignRequest(AppendAssignRequest(nil, m, s, row))
					if err2 != nil || m2 != m || s2 != s || !reflect.DeepEqual(row2, row) {
						t.Fatalf("assign round trip: (%q,%q,%v) → (%q,%q,%v), err %v", m, s, row, m2, s2, row2, err2)
					}
				}
			case FrameResult:
				if a, epoch, err := DecodeResult(payload); err == nil {
					a2, epoch2, err2 := DecodeResult(AppendResult(nil, a, epoch))
					if err2 != nil || epoch2 != epoch || !sameAssignment(a, a2) {
						t.Fatalf("result round trip: (%+v,%d) → (%+v,%d), err %v", a, epoch, a2, epoch2, err2)
					}
				}
			case FrameBatchStart:
				if name, err := DecodeBatchStart(payload); err == nil {
					name2, err2 := DecodeBatchStart(AppendBatchStart(nil, name))
					if err2 != nil || name2 != name {
						t.Fatalf("batch start round trip: %q → %q, err %v", name, name2, err2)
					}
				}
			case FrameBatchInfo:
				if name, epoch, err := DecodeBatchInfo(payload); err == nil {
					name2, epoch2, err2 := DecodeBatchInfo(AppendBatchInfo(nil, name, epoch))
					if err2 != nil || name2 != name || epoch2 != epoch {
						t.Fatalf("batch info round trip: (%q,%d) → (%q,%d), err %v", name, epoch, name2, epoch2, err2)
					}
				}
			case FrameRows:
				if rows, err := DecodeRows(payload); err == nil {
					rows2, err2 := DecodeRows(AppendRows(nil, rows))
					if err2 != nil || !reflect.DeepEqual(rows2, rows) {
						t.Fatalf("rows round trip: %v → %v, err %v", rows, rows2, err2)
					}
				}
			case FrameResults:
				if as, err := DecodeResults(payload, nil); err == nil {
					as2, err2 := DecodeResults(AppendResults(nil, as), nil)
					if err2 != nil || len(as2) != len(as) {
						t.Fatalf("results round trip: %d assignments → %d, err %v", len(as), len(as2), err2)
					}
					for i := range as {
						if !sameAssignment(as[i], as2[i]) {
							t.Fatalf("results round trip: assignment %d: %+v → %+v", i, as[i], as2[i])
						}
					}
				}
			case FrameError:
				if code, msg, err := DecodeError(payload); err == nil {
					code2, msg2, err2 := DecodeError(AppendError(nil, code, msg))
					if err2 != nil || code2 != code || msg2 != msg {
						t.Fatalf("error round trip: (%q,%q) → (%q,%q), err %v", code, msg, code2, msg2, err2)
					}
				}
			}
		}
	})
}

// FuzzAssignRoundTrip is the structured twin of FuzzWireFrames: instead of
// hoping the mutator finds valid payloads, it builds them from fuzzed values
// (including NaN/±Inf similarities and out-of-domain negative row codes) and
// requires the encode→decode round trip to be lossless.
func FuzzAssignRoundTrip(f *testing.F) {
	f.Add("m", "", []byte{1, 2, 3}, 2, 0.75, 7)
	f.Add("", "s-1", []byte{255, 0, 128}, 0, math.Inf(-1), -1)
	wide := int64(1) << 40 // past 32 bits; int(wide) is 0 where int is 32 bits
	f.Add("x", "y", []byte{}, -5, math.NaN(), int(wide))
	f.Fuzz(func(t *testing.T, modelName, session string, rowBytes []byte, cluster int, sim float64, epoch int) {
		if len(rowBytes) > 4096 {
			t.Skip()
		}
		row := make([]int, len(rowBytes))
		for i, b := range rowBytes {
			row[i] = int(int8(b)) // include out-of-domain negatives
		}
		if len(row) == 0 {
			row = nil // appendInts(len 0) decodes to nil
		}

		m2, s2, row2, err := DecodeAssignRequest(AppendAssignRequest(nil, modelName, session, row))
		if err != nil || m2 != modelName || s2 != session || !reflect.DeepEqual(row2, row) {
			t.Fatalf("assign: (%q,%q,%v) → (%q,%q,%v), err %v", modelName, session, row, m2, s2, row2, err)
		}

		a := Assignment{Cluster: cluster, Similarity: sim, Encoding: row}
		a2, epoch2, err := DecodeResult(AppendResult(nil, a, epoch))
		if err != nil || epoch2 != epoch || !sameAssignment(a, a2) {
			t.Fatalf("result: (%+v,%d) → (%+v,%d), err %v", a, epoch, a2, epoch2, err)
		}

		name2, epoch2, err := DecodeBatchInfo(AppendBatchInfo(nil, modelName, epoch))
		if err != nil || name2 != modelName || epoch2 != epoch {
			t.Fatalf("batch info: (%q,%d) → (%q,%d), err %v", modelName, epoch, name2, epoch2, err)
		}

		rows := [][]int{row, nil, {cluster}}
		rows2, err := DecodeRows(AppendRows(nil, rows))
		if err != nil || !reflect.DeepEqual(rows2, rows) {
			t.Fatalf("rows: %v → %v, err %v", rows, rows2, err)
		}

		code2, msg2, err := DecodeError(AppendError(nil, modelName, session))
		if err != nil || code2 != modelName || msg2 != session {
			t.Fatalf("error: (%q,%q) → (%q,%q), err %v", modelName, session, code2, msg2, err)
		}
	})
}
