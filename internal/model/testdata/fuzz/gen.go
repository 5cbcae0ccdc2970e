//go:build ignore

// gen.go regenerates the committed fuzz seed corpora for internal/model. The
// files are ordinary `go test fuzz v1` corpus entries, so `go test` replays
// them on every run and `go test -fuzz` mutates outward from them. Run from
// the repo root:
//
//	go run internal/model/testdata/fuzz/gen.go
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mcdc/internal/model"
)

func main() {
	// A well-formed wire stream covering every frame kind (mirrors the
	// fuzzSeedStream helper in wire_fuzz_test.go).
	var buf bytes.Buffer
	check(model.WriteWireHeader(&buf))
	frame := func(kind byte, payload []byte) { check(model.WriteFrame(&buf, kind, payload)) }
	frame(model.FrameAssign, model.AppendAssignRequest(nil, "m", "", []int{1, -1, 3, 70000}))
	frame(model.FrameBatchStart, model.AppendBatchStart(nil, "m"))
	frame(model.FrameRows, model.AppendRows(nil, [][]int{{0, 1}, {-1, -9}, nil}))
	frame(model.FrameBatchInfo, model.AppendBatchInfo(nil, "m", 3))
	frame(model.FrameResults, model.AppendResults(nil, []model.Assignment{
		{Cluster: 1, Similarity: 0.25, Encoding: []int{0, 2}},
		{Cluster: 0, Similarity: math.Inf(1)},
	}))
	frame(model.FrameResult, model.AppendResult(nil, model.Assignment{Cluster: 2, Similarity: 0.5, Encoding: []int{1, 0}}, 7))
	frame(model.FrameError, model.AppendError(nil, "model_not_found", "no such model"))
	frame(model.FrameEnd, nil)
	valid := buf.Bytes()

	truncated := valid[:len(valid)-3]
	badVersion := []byte("MCDCWIRE\x02")
	badMagic := []byte("NOTAWIRE\x01")
	hugeLength := append(append([]byte("MCDCWIRE\x01"), model.FrameAssign), 0xff, 0xff, 0xff, 0xff, 0x7f)

	write("internal/model/testdata/fuzz/FuzzWireFrames/valid-stream", b(valid))
	write("internal/model/testdata/fuzz/FuzzWireFrames/truncated-frame", b(truncated))
	write("internal/model/testdata/fuzz/FuzzWireFrames/bad-version", b(badVersion))
	write("internal/model/testdata/fuzz/FuzzWireFrames/bad-magic", b(badMagic))
	write("internal/model/testdata/fuzz/FuzzWireFrames/huge-length", b(hugeLength))
	// Malformed frame headers the in-place splitter must explain exactly as
	// ReadFrame does: a kind byte with no length, a length cut mid-varint, a
	// length that overflows 64 bits, a payload running past the end, and a
	// header cut short.
	header := []byte("MCDCWIRE\x01")
	write("internal/model/testdata/fuzz/FuzzWireFrames/no-length", b(append(header, model.FrameAssign)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/length-cut", b(append(header, model.FrameAssign, 0x80)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/length-overflow",
		b(append(header, model.FrameAssign, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/payload-past-end", b(append(header, model.FrameRows, 0x05, 0x01, 0x00)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/short-header", b([]byte("MCDCWI")))
	// Batch streams for the two stream decoders (mirrors fuzzSeedBatches):
	// a request and its reply, a request with no rows, a request with a
	// frame after its 'E', and a reply cut before its 'E'.
	chunks := [][][]int{{{0, 1}, {-1, -9}, nil}}
	batch := model.AppendBatchFrames(nil, "m", chunks[0])
	batchReply := model.AppendBatchReplyFrames(nil, "m", 3, chunks, []model.Assignment{
		{Cluster: 1, Similarity: 0.25, Encoding: []int{0, 2}},
		{Cluster: 0, Similarity: math.NaN()},
		{Cluster: 2, Similarity: math.Inf(-1), Encoding: []int{-1}},
	})
	write("internal/model/testdata/fuzz/FuzzWireFrames/batch-request", b(batch))
	write("internal/model/testdata/fuzz/FuzzWireFrames/batch-reply", b(batchReply))
	write("internal/model/testdata/fuzz/FuzzWireFrames/batch-no-rows", b(model.AppendBatchFrames(nil, "m", nil)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/batch-frame-after-end", b(append(batch, model.FrameEnd, 0)))
	write("internal/model/testdata/fuzz/FuzzWireFrames/batch-reply-no-end", b(batchReply[:len(batchReply)-2]))

	write("internal/model/testdata/fuzz/FuzzAssignRoundTrip/basic",
		s("m"), s(""), b([]byte{1, 2, 3}), i(2), fl(0.75), i(7))
	write("internal/model/testdata/fuzz/FuzzAssignRoundTrip/session-negatives",
		s(""), s("s-1"), b([]byte{255, 0, 128}), i(0), fl(-1.5), i(-1))
	write("internal/model/testdata/fuzz/FuzzAssignRoundTrip/empty-row",
		s("x"), s("y"), b(nil), i(-5), fl(0), i(1<<40))

	// FuzzAssignJSON: a body for the four scanners, then a model name,
	// cluster, similarity bits, epoch and encoding bytes for the appenders.
	// The bodies are the common shapes and the ones just outside the
	// scanners' subset; the similarities straddle json.Encoder's switches
	// between 'f' and 'e' format, and the names its escapes.
	jsonSeeds := []struct {
		name, body, model string
		cluster           int
		sim               float64
		epoch             int
		enc               []byte
	}{
		{"single", `{"model":"m","row":[1,-2,3]}`, "m", 2, 0.75, 7, []byte{1, 0, 2}},
		{"session-single", " {\"session\":\"s-1\" , \"row\":[ 0 ,70000]}\n", "", 0, 1, 0, nil},
		{"batch", `{"rows":[[0,1],[],[-9,3]],"model":"syn"}`, "syn", 0, 1e-7, 0, []byte{}},
		{"reply", "{\"cluster\":1,\"similarity\":0.5,\"epoch\":3,\"encoding\":[1,2]}\n", "a<b&c>", -1, 1e21, 1 << 40, []byte{7}},
		{"batch-reply", `{"model":"m","epoch":1,"assignments":[{"cluster":0,"similarity":1,"epoch":1},{"cluster":2,"similarity":-0,"epoch":2,"encoding":[]}]}`,
			"\u07e9\u2028", math.MaxInt64, math.Copysign(0, -1), -5, []byte{255, 128}},
		{"not-finite", `{"cluster":1,"similarity":1e400,"epoch":0}`, "\x7f\x00\"\\", 3, math.NaN(), 0, nil},
		{"smallest-similarity", `{"model":"Model","row":[1]}`, "M", 1, 5e-324, 1, []byte{1}},
		{"largest-similarity", `{"model":"m\u0031","row":[1]}`, "m", 1, math.MaxFloat64, 1, []byte{1}},
		{"f-format-floor", `{"model":"a","model":"m","row":[1]}`, "m", 1, 1e-6, 1, []byte{1}},
		{"e-format-below", `{"model":"m","row":null}`, "m", 1, -1e-7, 1, []byte{1}},
		{"f-format-ceiling", `{"model":"m","rows":[null]}`, "m", 1, 9.999999999999999e20, 1, []byte{1}},
		{"float-row", `{"model":"m","row":[1.0]}`, "m", 1, 0.1, 1, nil},
		{"exponent-row", `{"model":"m","rows":[[1e2]]}`, "m", 1, 0.1, 1, nil},
		{"leading-zero", `{"model":"m","row":[01]}`, "m", 1, 0.1, 1, nil},
		{"lone-minus", `{"model":"m","row":[-]}`, "m", 1, 0.1, 1, nil},
		{"20-digits", `{"model":"m","row":[12345678901234567890]}`, "m", 1, 0.1, 1, nil},
		{"garbage-after", `{"model":"m","row":[1]} garbage`, "m", 1, 0.1, 1, nil},
		{"empty-body", ``, "", 0, 0, 0, nil},
	}
	for _, sd := range jsonSeeds {
		write("internal/model/testdata/fuzz/FuzzAssignJSON/"+sd.name,
			b([]byte(sd.body)), s(sd.model), i(sd.cluster), u64(math.Float64bits(sd.sim)), i(sd.epoch), b(sd.enc))
	}
}

func b(v []byte) string   { return "[]byte(" + strconv.Quote(string(v)) + ")" }
func s(v string) string   { return "string(" + strconv.Quote(v) + ")" }
func i(v int) string      { return fmt.Sprintf("int(%d)", v) }
func u64(v uint64) string { return fmt.Sprintf("uint64(%d)", v) }
func fl(v float64) string {
	return fmt.Sprintf("float64(%s)", strconv.FormatFloat(v, 'g', -1, 64))
}

func write(path string, values ...string) {
	check(os.MkdirAll(filepath.Dir(path), 0o755))
	var out bytes.Buffer
	out.WriteString("go test fuzz v1\n")
	for _, v := range values {
		out.WriteString(v)
		out.WriteByte('\n')
	}
	check(os.WriteFile(path, out.Bytes(), 0o644))
	fmt.Println("wrote", path)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
