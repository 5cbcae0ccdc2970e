package model

// The binary assignment wire codec: the compact, length-prefixed frame
// protocol the serving daemon speaks next to HTTP/JSON. It deliberately
// mirrors the snapshot envelope's conventions — an 8-byte magic, a format
// version byte checked before anything else is decoded, and a typed version
// error — so the "bump the byte on any incompatible change, fail fast on
// alien versions" policy is one rule across files and wires.
//
// A wire stream is
//
//	"MCDCWIRE" | version(1) | frame*
//
// and every frame is
//
//	kind(1) | uvarint(payload length) | payload
//
// Payload scalars are encoded with encoding/binary varints: unsigned values
// as uvarints, possibly-negative values (row codes may carry out-of-domain
// negatives) as zigzag varints, strings as uvarint length + bytes, and
// float64s as 8 fixed big-endian bytes of their IEEE bit pattern — exactness
// matters, because the binary path must decode to the very float the JSON
// path produces. Frames are self-contained: a reader can decode any frame
// knowing only its kind, and unknown kinds are a protocol error, never a
// skip — the version byte is the compatibility lever, not lenient parsing.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// WireVersion is the binary frame protocol version this build speaks. Policy
// mirrors FormatVersion: bump on any incompatible change to the stream
// header, frame layout, or payload encodings; readers refuse other versions
// with a *WireVersionError before decoding a single frame.
const WireVersion = 1

// wireMagic opens every binary wire stream (one per HTTP request/response
// body, not one per frame); wireHeader is the magic plus the version byte.
var (
	wireMagic  = []byte("MCDCWIRE")
	wireHeader = append(append([]byte(nil), wireMagic...), WireVersion)
)

// MaxFramePayload bounds a single frame's payload. Large batches are carried
// as many row-chunk frames, so no legitimate frame approaches this; a length
// beyond it means a corrupt or hostile stream and fails decoding instead of
// provoking a giant allocation.
const MaxFramePayload = 16 << 20

// Frame kinds. Requests flow client → server, responses server → client.
const (
	// FrameAssign requests one assignment: model, session, row (exactly one
	// of model/session non-empty). Several FrameAssigns in one stream are the
	// pipelined form of N sequential /assign calls: each is answered by one
	// FrameResult or FrameError, in order.
	FrameAssign byte = 'A'
	// FrameBatchStart opens a batch: model name. Followed by FrameRows
	// chunks and closed by FrameEnd.
	FrameBatchStart byte = 'B'
	// FrameRows carries a chunk of rows of a batch.
	FrameRows byte = 'R'
	// FrameEnd closes a request or response stream explicitly.
	FrameEnd byte = 'E'
	// FrameResult answers one FrameAssign: cluster, similarity, epoch,
	// encoding.
	FrameResult byte = 'a'
	// FrameBatchInfo opens a batch response: model name and snapshot epoch
	// (constant across the batch, exactly like the JSON response's top-level
	// epoch).
	FrameBatchInfo byte = 'b'
	// FrameResults answers one FrameRows chunk with its assignments.
	FrameResults byte = 'r'
	// FrameError carries an in-band structured error: code and message (the
	// binary twin of the JSON error envelope).
	FrameError byte = '!'
)

// ErrNotWire is returned when a stream does not start with the wire magic.
var ErrNotWire = errors.New("model: not an MCDC wire stream (bad magic)")

// WireVersionError reports a wire stream written under an incompatible
// protocol version.
type WireVersionError struct {
	Got, Want int
}

func (e *WireVersionError) Error() string {
	return fmt.Sprintf("model: wire protocol version %d, this build speaks version %d — upgrade one side or fall back to JSON", e.Got, e.Want)
}

// WriteWireHeader begins a wire stream: magic plus version byte.
func WriteWireHeader(w io.Writer) error {
	if _, err := w.Write(wireHeader); err != nil {
		return fmt.Errorf("model: write wire header: %w", err)
	}
	return nil
}

// ReadWireHeader verifies the magic and version of a wire stream. Like the
// snapshot envelope, the version check happens before any frame is decoded.
func ReadWireHeader(r io.Reader) error {
	hdr := make([]byte, len(wireMagic)+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrNotWire
		}
		return fmt.Errorf("model: read wire header: %w", err)
	}
	for i := range wireMagic {
		if hdr[i] != wireMagic[i] {
			return ErrNotWire
		}
	}
	if v := int(hdr[len(wireMagic)]); v != WireVersion {
		return &WireVersionError{Got: v, Want: WireVersion}
	}
	return nil
}

// WriteFrame emits one frame: kind, uvarint payload length, payload. It
// allocates nothing when w is an io.ByteWriter, as a *bufio.Writer and a
// *bytes.Buffer are: the header then goes out byte by byte, so the array
// holding it never escapes through an io.Writer call.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = kind
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	var err error
	if bw, ok := w.(io.ByteWriter); ok {
		for i := 0; i < n && err == nil; i++ {
			err = bw.WriteByte(hdr[i])
		}
	} else {
		_, err = w.Write(append([]byte(nil), hdr[:n]...))
	}
	if err == nil {
		_, err = w.Write(payload)
	}
	if err != nil {
		return fmt.Errorf("model: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame. The payload is read into buf's storage when it
// fits and into a new slice otherwise, so a reader that hands each payload
// back as the next buf allocates only for a payload longer than every
// earlier one, not once per frame; a payload is valid until its storage is
// passed to ReadFrame again. A clean
// end of stream returns io.EOF; a stream truncated mid-frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, buf []byte) (kind byte, payload []byte, err error) {
	kind, err = br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF = clean stream end
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("model: read frame length: %w", err)
	}
	if size > MaxFramePayload {
		return 0, nil, fmt.Errorf("model: frame payload of %d bytes exceeds the %d limit", size, MaxFramePayload)
	}
	if uint64(cap(buf)) >= size {
		payload = buf[:size]
	} else {
		payload = make([]byte, size)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("model: read frame payload: %w", err)
	}
	return kind, payload, nil
}

// Frame is one frame of a wire stream held whole in memory.
type Frame struct {
	Kind    byte
	Payload []byte
}

// SplitFrames checks the wire header of a whole stream held in memory and
// appends the frames after it to dst. Each payload aliases data, capped so
// that appending to it cannot overwrite the next frame: nothing is copied,
// and dst grows at most once, because the frames are counted first.
// A malformed stream fails with the very error ReadWireHeader or ReadFrame
// gives for it, because the bad header or frame is handed to them to
// explain; the whole frames before it are appended all the same.
func SplitFrames(data []byte, dst []Frame) ([]Frame, error) {
	if !bytes.HasPrefix(data, wireHeader) {
		return dst, ReadWireHeader(bytes.NewReader(data))
	}
	frames, bad := 0, data[len(wireHeader):]
	for len(bad) > 0 {
		size, n := binary.Uvarint(bad[1:])
		if n <= 0 || size > MaxFramePayload || size > uint64(len(bad)-1-n) {
			break
		}
		bad = bad[1+n+int(size):]
		frames++
	}
	dst = slices.Grow(dst, frames)
	for rest := data[len(wireHeader):]; frames > 0; frames-- {
		size, n := binary.Uvarint(rest[1:])
		end := 1 + n + int(size)
		dst = append(dst, Frame{Kind: rest[0], Payload: rest[1+n : end : end]})
		rest = rest[end:]
	}
	if len(bad) > 0 {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad)), nil)
		return dst, err
	}
	return dst, nil
}

// ---- payload scalar encoding ----

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendString(b []byte, s string) []byte {
	b = appendUint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendInts(b []byte, v []int) []byte {
	b = appendUint(b, uint64(len(v)))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

// wireCursor decodes payload scalars in sequence, latching the first error.
type wireCursor struct {
	b   []byte
	err error
}

func (c *wireCursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("model: truncated wire payload at %s", what)
	}
}

func (c *wireCursor) uint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *wireCursor) int(what string) int {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.b = c.b[n:]
	return int(v)
}

// bytes decodes a length-prefixed string as a subslice of the payload.
func (c *wireCursor) bytes(what string) []byte {
	n := c.uint(what)
	if c.err != nil {
		return nil
	}
	if uint64(len(c.b)) < n {
		c.fail(what)
		return nil
	}
	s := c.b[:n:n]
	c.b = c.b[n:]
	return s
}

func (c *wireCursor) str(what string) string { return string(c.bytes(what)) }

func (c *wireCursor) float(what string) float64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail(what)
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(c.b))
	c.b = c.b[8:]
	return f
}

func (c *wireCursor) ints(what string) []int { return c.appendInts(nil, what) }

// appendInts decodes a length-prefixed int list onto dst, growing it only
// when the list does not fit; on failure dst comes back as it was.
func (c *wireCursor) appendInts(dst []int, what string) []int {
	n := c.uint(what)
	if c.err != nil || n == 0 {
		return dst
	}
	if n > uint64(len(c.b)) { // each int takes ≥ 1 byte — cheap pre-guard
		c.fail(what)
		return dst
	}
	start := len(dst)
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		dst = append(dst, c.int(what))
	}
	if c.err != nil {
		return dst[:start]
	}
	return dst
}

// done returns the latched error, also flagging trailing garbage — a frame
// payload must be consumed exactly.
func (c *wireCursor) done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("model: %d trailing bytes in wire payload", len(c.b))
	}
	return c.err
}

// ---- message payloads ----

// AppendAssignRequest encodes a FrameAssign payload: target model or session
// (exactly one non-empty, enforced by the server like the JSON path) and the
// row.
func AppendAssignRequest(b []byte, modelName, session string, row []int) []byte {
	b = appendString(b, modelName)
	b = appendString(b, session)
	return appendInts(b, row)
}

// DecodeAssignRequest decodes a FrameAssign payload.
func DecodeAssignRequest(payload []byte) (modelName, session string, row []int, err error) {
	var req AssignRequest
	err = req.Decode(payload)
	return string(req.Model), string(req.Session), req.Row, err
}

// AssignRequest is a FrameAssign payload decoded in place, for readers that
// decode frame after frame and must not allocate per frame: Model and
// Session alias the payload and Row keeps its storage from one Decode to the
// next. All three are valid only until the next Decode or until the
// payload's buffer is reused, so a consumer that keeps one copies it.
type AssignRequest struct {
	Model, Session []byte
	Row            []int
}

// Decode decodes a FrameAssign payload into req, failing exactly as
// DecodeAssignRequest does.
func (req *AssignRequest) Decode(payload []byte) error {
	c := wireCursor{b: payload}
	req.Model = c.bytes("assign model")
	req.Session = c.bytes("assign session")
	req.Row = c.appendInts(req.Row[:0], "assign row")
	return c.done()
}

// AppendResult encodes a FrameResult payload: one assignment plus the
// snapshot epoch it was made under. A nil Encoding (session assignments)
// round-trips as nil, matching the JSON response's omitted field.
func AppendResult(b []byte, a Assignment, epoch int) []byte {
	b = appendInt(b, a.Cluster)
	b = appendFloat(b, a.Similarity)
	b = appendInt(b, epoch)
	return appendInts(b, a.Encoding)
}

// DecodeResult decodes a FrameResult payload.
func DecodeResult(payload []byte) (a Assignment, epoch int, err error) {
	a, epoch, _, err = DecodeResultAppend(payload, nil)
	return a, epoch, err
}

// DecodeResultAppend is DecodeResult for a reader that decodes many results
// and keeps them all: the encoding is appended to enc, which comes back
// extended, and a.Encoding is the appended stretch — capped, so appending to
// it cannot reach a neighbour — or nil when empty. The results then share
// enc's storage instead of allocating a slice each.
func DecodeResultAppend(payload []byte, enc []int) (a Assignment, epoch int, _ []int, err error) {
	c := wireCursor{b: payload}
	a.Cluster = c.int("result cluster")
	a.Similarity = c.float("result similarity")
	epoch = c.int("result epoch")
	start := len(enc)
	if enc = c.appendInts(enc, "result encoding"); len(enc) > start {
		a.Encoding = enc[start:len(enc):len(enc)]
	}
	return a, epoch, enc, c.done()
}

// AppendBatchStart encodes a FrameBatchStart payload: the model name.
func AppendBatchStart(b []byte, modelName string) []byte {
	return appendString(b, modelName)
}

// DecodeBatchStart decodes a FrameBatchStart payload.
func DecodeBatchStart(payload []byte) (string, error) {
	c := wireCursor{b: payload}
	name := c.str("batch model")
	return name, c.done()
}

// AppendBatchInfo encodes a FrameBatchInfo payload: model name and epoch.
func AppendBatchInfo(b []byte, modelName string, epoch int) []byte {
	b = appendString(b, modelName)
	return appendInt(b, epoch)
}

// DecodeBatchInfo decodes a FrameBatchInfo payload.
func DecodeBatchInfo(payload []byte) (modelName string, epoch int, err error) {
	c := wireCursor{b: payload}
	modelName = c.str("batch info model")
	epoch = c.int("batch info epoch")
	return modelName, epoch, c.done()
}

// AppendRows encodes a FrameRows payload: a chunk of rows.
func AppendRows(b []byte, rows [][]int) []byte {
	b = appendUint(b, uint64(len(rows)))
	for _, row := range rows {
		b = appendInts(b, row)
	}
	return b
}

// DecodeRows decodes a FrameRows payload.
func DecodeRows(payload []byte) ([][]int, error) {
	c := wireCursor{b: payload}
	n := c.uint("rows count")
	if c.err != nil {
		return nil, c.done()
	}
	if n > uint64(len(payload)) { // ≥ 1 byte per row — corrupt-count guard
		return nil, fmt.Errorf("model: rows chunk claims %d rows in %d bytes", n, len(payload))
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = c.ints("row")
		if c.err != nil {
			break
		}
	}
	return rows, c.done()
}

// AppendResults encodes a FrameResults payload: the assignments of one rows
// chunk. The batch's epoch lives in FrameBatchInfo, so per-assignment payload
// is cluster, similarity, and encoding.
func AppendResults(b []byte, as []Assignment) []byte {
	b = appendUint(b, uint64(len(as)))
	for _, a := range as {
		b = appendInt(b, a.Cluster)
		b = appendFloat(b, a.Similarity)
		b = appendInts(b, a.Encoding)
	}
	return b
}

// DecodeResults decodes a FrameResults payload, appending to dst. The
// encodings are carved from one backing array, each capped so that an
// append to one cannot reach its neighbour, and nil when empty.
func DecodeResults(payload []byte, dst []Assignment) ([]Assignment, error) {
	c := wireCursor{b: payload}
	n := c.uint("results count")
	if c.err != nil {
		return dst, c.done()
	}
	if n > uint64(len(payload)) {
		return dst, fmt.Errorf("model: results chunk claims %d assignments in %d bytes", n, len(payload))
	}
	// An assignment takes at least 10 bytes besides its encoding values
	// (cluster, similarity, length), and every value at least one, so the
	// bytes left bound both the assignments and the values they hold.
	dst = slices.Grow(dst, min(int(n), len(c.b)/10))
	enc := make([]int, 0, max(len(c.b)-10*int(n), 0))
	for i := uint64(0); i < n; i++ {
		var a Assignment
		a.Cluster = c.int("result cluster")
		a.Similarity = c.float("result similarity")
		start := len(enc)
		if enc = c.appendInts(enc, "result encoding"); len(enc) > start {
			a.Encoding = enc[start:len(enc):len(enc)]
		}
		if c.err != nil {
			break
		}
		dst = append(dst, a)
	}
	return dst, c.done()
}

// AppendError encodes a FrameError payload: stable error code plus message —
// the in-band twin of the HTTP JSON error envelope.
func AppendError(b []byte, code, message string) []byte {
	b = appendString(b, code)
	return appendString(b, message)
}

// DecodeError decodes a FrameError payload.
func DecodeError(payload []byte) (code, message string, err error) {
	c := wireCursor{b: payload}
	code = c.str("error code")
	message = c.str("error message")
	return code, message, c.done()
}

// ---- batch streams ----
//
// A batch travels as one whole stream each way, and this is the one place
// its grammar is spelled:
//
//	request  header | 'B' model | 'R' rows … | 'E'
//	reply    header | 'b' model, epoch | 'r' assignments … | 'E'
//
// The reply carries one 'r' per non-empty 'R' of its request, in order.

// MaxBatchChunk bounds the row data of one 'R' frame AppendBatchFrames
// writes, counting every varint at its 10-byte maximum, so chunks stay far
// under MaxFramePayload whatever the values: a JSON batch body alone may hold
// 64 MiB of rows.
const MaxBatchChunk = 1 << 20

// AppendBatchFrames appends a whole batch request stream to b: the header, 'B'
// naming the model, the rows in order as 'R' chunks of at most MaxBatchChunk
// bytes of row data (a row past the bound on its own travels alone), and 'E'.
// No rows means no 'R' frame.
func AppendBatchFrames(b []byte, modelName string, rows [][]int) []byte {
	buf := bytes.NewBuffer(b)
	_ = WriteWireHeader(buf)
	payload := AppendBatchStart(nil, modelName)
	_ = WriteFrame(buf, FrameBatchStart, payload)
	for len(rows) > 0 {
		n, size := 0, binary.MaxVarintLen64 // the chunk's row count
		for ; n < len(rows); n++ {
			rowSize := (len(rows[n]) + 1) * binary.MaxVarintLen64 // its length and values
			if n > 0 && size+rowSize > MaxBatchChunk {
				break
			}
			size += rowSize
		}
		payload = AppendRows(payload[:0], rows[:n])
		_ = WriteFrame(buf, FrameRows, payload)
		rows = rows[n:]
	}
	_ = WriteFrame(buf, FrameEnd, nil)
	return buf.Bytes()
}

// DecodeBatchFrames decodes a batch request stream that SplitFrames split:
// 'B', any number of 'R' row chunks, and 'E' as its last frame. It returns
// the model and every chunk in order, empty ones included, so a reply can
// mirror them.
func DecodeBatchFrames(frames []Frame) (modelName string, chunks [][][]int, err error) {
	if len(frames) == 0 || frames[0].Kind != FrameBatchStart {
		return "", nil, errors.New("batch stream must open with a batch-start frame")
	}
	if modelName, err = DecodeBatchStart(frames[0].Payload); err != nil {
		return "", nil, err
	}
	for i, f := range frames[1:] {
		switch {
		case f.Kind == FrameRows:
			chunk, err := DecodeRows(f.Payload)
			if err != nil {
				return "", nil, err
			}
			chunks = append(chunks, chunk)
		case f.Kind != FrameEnd:
			return "", nil, fmt.Errorf("unexpected frame kind %q in batch stream", f.Kind)
		case i != len(frames)-2:
			return "", nil, errors.New("frames after the end frame")
		}
	}
	if frames[len(frames)-1].Kind != FrameEnd {
		return "", nil, errors.New("batch stream ended without an end frame")
	}
	return modelName, chunks, nil
}

// AppendBatchReplyFrames appends the whole reply to a batch request whose row
// chunks were chunks: the header, 'b' with the model and the epoch, one 'r'
// per non-empty chunk holding the next len(chunk) of asgs, and 'E'.
func AppendBatchReplyFrames(b []byte, modelName string, epoch int, chunks [][][]int, asgs []Assignment) []byte {
	buf := bytes.NewBuffer(b)
	_ = WriteWireHeader(buf)
	payload := AppendBatchInfo(nil, modelName, epoch)
	_ = WriteFrame(buf, FrameBatchInfo, payload)
	for _, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		payload = AppendResults(payload[:0], asgs[:len(chunk)])
		asgs = asgs[len(chunk):]
		_ = WriteFrame(buf, FrameResults, payload)
	}
	_ = WriteFrame(buf, FrameEnd, nil)
	return buf.Bytes()
}

// DecodeBatchReplyFrames decodes a whole batch reply stream: 'b', any number
// of 'r' chunks, and 'E' as its last frame. It returns the epoch and the
// assignments of every chunk in order.
func DecodeBatchReplyFrames(data []byte) (epoch int, asgs []Assignment, err error) {
	frames, err := SplitFrames(data, nil)
	if err != nil {
		return 0, nil, err
	}
	if len(frames) == 0 || frames[0].Kind != FrameBatchInfo {
		return 0, nil, errors.New("batch reply must open with a batch-info frame")
	}
	if _, epoch, err = DecodeBatchInfo(frames[0].Payload); err != nil {
		return 0, nil, err
	}
	for i, f := range frames[1:] {
		switch {
		case f.Kind == FrameResults:
			if asgs, err = DecodeResults(f.Payload, asgs); err != nil {
				return 0, nil, err
			}
		case f.Kind != FrameEnd:
			return 0, nil, fmt.Errorf("unexpected frame kind %q in batch reply", f.Kind)
		case i != len(frames)-2:
			return 0, nil, errors.New("frames after the end frame")
		}
	}
	if frames[len(frames)-1].Kind != FrameEnd {
		return 0, nil, errors.New("batch reply ended without an end frame")
	}
	return epoch, asgs, nil
}
