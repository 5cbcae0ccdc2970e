package model

// The JSON assignment codec: the two JSON assign bodies and their replies,
// spelled by hand beside the frame codec whose messages they carry. The
// serving edge decodes requests and encodes replies with it, and the typed
// client the reverse, so one file knows the format:
//
//	POST /v1/assign        {"model": m, "session": s, "row": [v, …]}
//	         reply         {"cluster":c,"similarity":f,"epoch":e,"encoding":[…]}
//	POST /v1/assign/batch  {"model": m, "rows": [[v, …], …]}
//	         reply         {"model":m,"epoch":e,"assignments":[reply, …]}
//
// Each decoder scans a strict subset of JSON: any whitespace and key order,
// each key spelled exactly and at most once, plain integers of at most 18
// digits, JSON numbers for similarities, strings without escapes, control or
// non-ASCII bytes, and only whitespace after the value. Anything else — an
// escape, a null, a float where an integer belongs, a key in another case —
// makes the scanner decline, and encoding/json decodes the body as it always
// did. So what a body decodes to, and every error text, stay encoding/json's
// by construction; the scanners only make the common body cheap. The request
// fallback refuses unknown fields, as the daemon always has; the reply
// fallback does not, as the client never has.
//
// The reply encoders append what json.Encoder writes for the same value, byte
// for byte: its float format, its HTML-escaped strings and its trailing
// newline. The request encoders write what json.Marshal made of the client's
// request maps, except that a nil row is written [] rather than null, which
// the daemon reads alike.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The fallback shapes: what encoding/json decodes a declined body into. Their
// type names appear in encoding/json's error texts, so they keep the names
// the daemon's request types have always had.
type (
	assignRequest struct {
		Model   string `json:"model,omitempty"`
		Session string `json:"session,omitempty"`
		Row     []int  `json:"row"`
	}
	batchRequest struct {
		Model string  `json:"model"`
		Rows  [][]int `json:"rows"`
	}
	batchReply struct {
		Model       string  `json:"model"`
		Epoch       int     `json:"epoch"`
		Assignments []Reply `json:"assignments"`
	}
)

// Reply is one answered assignment as a JSON reply spells it: the assignment
// and the epoch of the snapshot that made it. Encoding is nil when empty, as
// it is for session assignments.
type Reply struct {
	Cluster    int     `json:"cluster"`
	Similarity float64 `json:"similarity"`
	Epoch      int     `json:"epoch"`
	Encoding   []int   `json:"encoding,omitempty"`
}

// ---- requests ----

// AppendAssignJSON appends a POST /v1/assign body: the model or the session
// (an empty one is left out) and the row.
func AppendAssignJSON(b []byte, modelName, session string, row []int) []byte {
	b = append(b, '{')
	if modelName != "" {
		b = appendStringJSON(append(b, `"model":`...), modelName)
		b = append(b, ',')
	}
	b = appendIntsJSON(append(b, `"row":`...), row)
	if session != "" {
		b = appendStringJSON(append(b, `,"session":`...), session)
	}
	return append(b, '}')
}

// AppendBatchJSON appends a POST /v1/assign/batch body.
func AppendBatchJSON(b []byte, modelName string, rows [][]int) []byte {
	size := 24 + len(modelName) // room for rows of values under 100
	for _, row := range rows {
		size += 2 + 3*len(row)
	}
	b = appendStringJSON(append(slices.Grow(b, size), `{"model":`...), modelName)
	b = append(b, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIntsJSON(b, row)
	}
	return append(b, "]}"...)
}

// DecodeAssignJSON decodes a POST /v1/assign body and appends the FrameAssign
// payload a frame client would have sent for it to b. A body the scanner
// declines is decoded by encoding/json, refusing unknown fields; its error is
// encoding/json's.
func DecodeAssignJSON(b, body []byte) ([]byte, error) {
	if p, ok := scanAssign(b, body); ok {
		return p, nil
	}
	var req assignRequest
	if err := decodeStrict(body, &req); err != nil {
		return b, err
	}
	return AppendAssignRequest(b, req.Model, req.Session, req.Row), nil
}

// DecodeBatchJSON decodes a POST /v1/assign/batch body. A scanned body's rows
// share one backing array, each capped so that appending to it cannot reach
// its neighbour. A declined body is decoded as DecodeAssignJSON decodes one.
func DecodeBatchJSON(body []byte) (modelName string, rows [][]int, err error) {
	if name, rows, ok := scanBatch(body); ok {
		return name, rows, nil
	}
	var req batchRequest
	err = decodeStrict(body, &req)
	return req.Model, req.Rows, err
}

// decodeStrict decodes the first JSON value of body into v as the daemon's
// request decoder always has: unknown fields refused, anything after the
// value unread.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// scanAssign is DecodeAssignJSON's scanner. It checks the whole body before
// it appends, so a decline leaves b as it was.
func scanAssign(b, body []byte) ([]byte, bool) {
	var buf [64]int // holds the row unless it is longer
	s := scanner{b: body}
	var modelName, session []byte
	var row []int
	sawRow := false
	ok := s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "model":
			if modelName != nil {
				return false
			}
			modelName, ok = s.str()
		case "session":
			if session != nil {
				return false
			}
			session, ok = s.str()
		case "row":
			if sawRow {
				return false
			}
			sawRow = true
			row, ok = s.ints(buf[:0])
		}
		return ok
	})
	if !ok || !s.end() {
		return nil, false
	}
	// The payload is at most 3 bytes longer than the body: no varint is
	// longer than the digits it stands for.
	b = slices.Grow(b, len(body)+3)
	b = appendBytes(b, modelName)
	b = appendBytes(b, session)
	return appendInts(b, row), true
}

// scanBatch is DecodeBatchJSON's scanner: one pass checks the body and
// counts rows and values, a second fills them in.
func scanBatch(body []byte) (modelName string, rows [][]int, ok bool) {
	var buf [64]int // holds one row at a time in the first pass
	s := scanner{b: body}
	var name []byte
	at, nrows, nvals := -1, 0, 0
	ok = s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "model":
			if name != nil {
				return false
			}
			name, ok = s.str()
		case "rows":
			if at >= 0 {
				return false
			}
			at = s.i
			row := buf[:0]
			nrows, ok = s.array(func() bool {
				var ok bool
				row, ok = s.ints(row[:0])
				nvals += len(row)
				return ok
			})
		}
		return ok
	})
	if !ok || !s.end() {
		return "", nil, false
	}
	if at >= 0 {
		rows = make([][]int, 0, nrows)
		vals := make([]int, 0, nvals)
		s.i = at
		s.array(func() bool {
			start := len(vals)
			vals, _ = s.ints(vals)
			rows = append(rows, vals[start:len(vals):len(vals)])
			return true
		})
	}
	return string(name), rows, true
}

// ---- replies ----

// AppendResultJSON appends the reply to a POST /v1/assign JSON single for
// the FrameResult payload that answers it, without decoding the payload into
// an Assignment first. It fails on a malformed payload, and on a similarity
// JSON cannot spell (NaN or ±Inf), which json.Encoder refuses too.
func AppendResultJSON(b, payload []byte) ([]byte, error) {
	c := wireCursor{b: payload}
	cluster := c.int("result cluster")
	sim := c.float("result similarity")
	epoch := c.int("result epoch")
	n := c.uint("result encoding")
	if c.err == nil && n > uint64(len(c.b)) { // ≥ 1 byte per value
		c.fail("result encoding")
	}
	if c.err != nil {
		return b, c.err
	}
	// Room for the usual reply: some 50 bytes of keys, then up to 24 for the
	// similarity and a few digits per varint byte.
	out, err := appendReplyHead(slices.Grow(b, 64+4*len(payload)), cluster, sim, epoch)
	if err != nil {
		return b, err
	}
	if n > 0 {
		out = append(out, `,"encoding":[`...)
		for i := uint64(0); i < n; i++ {
			if i > 0 {
				out = append(out, ',')
			}
			out = strconv.AppendInt(out, int64(c.int("result encoding")), 10)
		}
		out = append(out, ']')
	}
	if err := c.done(); err != nil {
		return b, err
	}
	return append(out, "}\n"...), nil
}

// AppendBatchReplyJSON appends the reply to a POST /v1/assign/batch JSON
// request: asgs[i] answers row i and was made under a snapshot of epoch(i);
// the top-level epoch is row 0's. Like AppendResultJSON it fails on a
// similarity JSON cannot spell.
func AppendBatchReplyJSON(b []byte, modelName string, asgs []Assignment, epoch func(i int) int) ([]byte, error) {
	size := 48 + len(modelName) // room for the usual reply: some 70 bytes an assignment, and its encoding
	for _, a := range asgs {
		size += 72 + 3*len(a.Encoding)
	}
	out := appendStringJSON(append(slices.Grow(b, size), `{"model":`...), modelName)
	out = strconv.AppendInt(append(out, `,"epoch":`...), int64(epoch(0)), 10)
	out = append(out, `,"assignments":[`...)
	for i, a := range asgs {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = appendReplyHead(out, a.Cluster, a.Similarity, epoch(i)); err != nil {
			return b, err
		}
		if len(a.Encoding) > 0 {
			out = appendIntsJSON(append(out, `,"encoding":`...), a.Encoding)
		}
		out = append(out, '}')
	}
	return append(out, "]}\n"...), nil
}

// appendReplyHead appends a Reply up to, not including, its encoding.
func appendReplyHead(b []byte, cluster int, sim float64, epoch int) ([]byte, error) {
	if math.IsNaN(sim) || math.IsInf(sim, 0) {
		return b, fmt.Errorf("model: similarity %v has no JSON form", sim)
	}
	b = strconv.AppendInt(append(b, `{"cluster":`...), int64(cluster), 10)
	b = appendFloatJSON(append(b, `,"similarity":`...), sim)
	return strconv.AppendInt(append(b, `,"epoch":`...), int64(epoch), 10), nil
}

// DecodeResultJSON decodes the reply to a POST /v1/assign JSON single. A
// reply the scanner declines is decoded by encoding/json.
func DecodeResultJSON(body []byte) (Reply, error) {
	if r, ok := scanResult(body); ok {
		return r, nil
	}
	var r Reply
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&r)
	return r, err
}

// scanResult is DecodeResultJSON's scanner.
func scanResult(body []byte) (r Reply, ok bool) {
	var buf [64]int // holds the encoding unless it is longer
	s := scanner{b: body}
	enc, hasEnc, ok := s.reply(&r, buf[:0])
	if !ok || !s.end() {
		return Reply{}, false
	}
	if hasEnc {
		r.Encoding = append(make([]int, 0, len(enc)), enc...)
	}
	return r, true
}

// DecodeBatchReplyJSON decodes the reply to a POST /v1/assign/batch JSON
// request into its assignments, in row order. A scanned reply's encodings
// share one backing array, each capped as DecodeBatchJSON caps its rows; a
// declined reply is decoded by encoding/json.
func DecodeBatchReplyJSON(body []byte) ([]Reply, error) {
	if _, _, replies, ok := scanBatchReply(body); ok {
		return replies, nil
	}
	var out batchReply
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&out)
	return out.Assignments, err
}

// scanBatchReply is DecodeBatchReplyJSON's scanner, which also hands back
// the model name and the top-level epoch: one pass checks the body and
// counts replies and encoding values, a second fills them in.
func scanBatchReply(body []byte) (modelName string, epoch int, replies []Reply, ok bool) {
	var buf [64]int // holds one encoding at a time in the first pass
	s := scanner{b: body}
	var name []byte
	sawEpoch := false
	at, n, nvals := -1, 0, 0
	ok = s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "model":
			if name != nil {
				return false
			}
			name, ok = s.str()
		case "epoch":
			if sawEpoch {
				return false
			}
			sawEpoch = true
			epoch, ok = s.int()
		case "assignments":
			if at >= 0 {
				return false
			}
			at = s.i
			enc := buf[:0]
			n, ok = s.array(func() bool {
				var r Reply
				var ok bool
				enc, _, ok = s.reply(&r, enc[:0])
				nvals += len(enc)
				return ok
			})
		}
		return ok
	})
	if !ok || !s.end() {
		return "", 0, nil, false
	}
	if at >= 0 {
		replies = make([]Reply, n)
		vals := make([]int, 0, nvals)
		s.i = at
		k := 0
		s.array(func() bool {
			start := len(vals)
			var hasEnc bool
			if vals, hasEnc, _ = s.reply(&replies[k], vals); hasEnc {
				replies[k].Encoding = vals[start:len(vals):len(vals)]
			}
			k++
			return true
		})
	}
	return string(name), epoch, replies, true
}

// ---- scalars ----

// appendStringJSON appends s as json.Encoder spells it: a plain string is
// quoted as it is, any other takes encoding/json's own path.
func appendStringJSON(b []byte, s string) []byte {
	if !plainString(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainString reports whether s is printable ASCII with nothing json.Encoder
// escapes: no quote or backslash, and none of HTML's <, > and &. The
// scanner reads such a string back.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendIntsJSON appends v as a JSON array, [] when empty.
func appendIntsJSON(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloatJSON appends a finite f as json.Encoder does: the shortest
// decimal that round-trips, in 'f' format except below 1e-6 or from 1e21,
// where it takes 'e' format with a two-digit negative exponent trimmed
// ("1e-07" → "1e-7").
func appendFloatJSON(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendBytes is appendString for a string held as bytes.
func appendBytes(b, s []byte) []byte {
	return append(appendUint(b, uint64(len(s))), s...)
}

// ---- the scanner ----

// scanner reads the strict JSON subset the decoders accept. Every method
// that reads a token skips the whitespace before it and reports false on
// anything outside the subset; a false is final, so callers just unwind. The loops
// that run once per value call skipSpace and parseInt, which work on a byte
// slice and an index held in registers rather than on the scanner.
type scanner struct {
	b []byte
	i int
}

// skipSpace returns the index of the first byte at or after i in b that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// parseInt reads the JSON integer at b[i], which must have at most 18
// digits, so that no int64 overflows, and returns it with the index after
// it. A fraction or exponent after the digits fails, as encoding/json
// refuses one for an int.
func parseInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var v int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - first; n == 0 || n > 18 || n > 1 && b[first] == '0' {
		return 0, i, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return int(v), i, int64(int(v)) == v // false for an int narrower than 64 bits
}

func (s *scanner) space() { s.i = skipSpace(s.b, s.i) }

// eat consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// object reads an object, calling value with each key once the colon after
// it is read; value reads the value and reports whether the key is known and
// its value in the subset.
func (s *scanner) object(value func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !value(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// array reads an array, calling elem to read each element, and returns the
// number of elements.
func (s *scanner) array(elem func() bool) (int, bool) {
	if !s.eat('[') {
		return 0, false
	}
	if s.eat(']') {
		return 0, true
	}
	for n := 1; ; n++ {
		if !elem() {
			return 0, false
		}
		if !s.eat(',') {
			return n, s.eat(']')
		}
	}
}

// ints reads an array of plain integers and appends them to dst.
func (s *scanner) ints(dst []int) ([]int, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	b, i := s.b, s.i
	for {
		v, next, ok := parseInt(b, skipSpace(b, i))
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if i = skipSpace(b, next); i < len(b) && b[i] == ',' {
			i++
			continue
		}
		s.i = i
		return dst, s.eat(']')
	}
}

// str reads a string without escapes, control or non-ASCII bytes and returns
// its bytes, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	b, start := s.b, s.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// int reads a plain integer, as parseInt does.
func (s *scanner) int() (int, bool) {
	v, i, ok := parseInt(s.b, skipSpace(s.b, s.i))
	s.i = i
	return v, ok
}

// digits reads a run of decimal digits and returns how many there were.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// float reads a JSON number and parses it as encoding/json parses one for a
// float64; one out of float64's range declines.
func (s *scanner) float() (float64, bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	first := s.i
	if n := s.digits(); n == 0 || n > 1 && s.b[first] == '0' {
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// reply reads one Reply object into r, all but its encoding, whose values it
// appends to vals; hasEnc reports whether the object has an encoding.
func (s *scanner) reply(r *Reply, vals []int) (_ []int, hasEnc, ok bool) {
	var sawCluster, sawSim, sawEpoch bool
	ok = s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "cluster":
			if sawCluster {
				return false
			}
			sawCluster = true
			r.Cluster, ok = s.int()
		case "similarity":
			if sawSim {
				return false
			}
			sawSim = true
			r.Similarity, ok = s.float()
		case "epoch":
			if sawEpoch {
				return false
			}
			sawEpoch = true
			r.Epoch, ok = s.int()
		case "encoding":
			if hasEnc {
				return false
			}
			hasEnc = true
			vals, ok = s.ints(vals)
		}
		return ok
	})
	return vals, hasEnc, ok
}
