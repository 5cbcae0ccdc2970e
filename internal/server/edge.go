package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"mcdc/internal/model"
)

// The assignment edge: how both tiers turn a POST /v1/assign or
// /v1/assign/batch body into work and the work's answers back into a body.
// The daemon's and the gateway's handlers both call it, so for any input a
// gateway answers exactly what a solo daemon answers — malformed and
// oversized requests included.
//
// Both codecs share one body bound, maxBodyBytes, and each body is read whole
// before it is decoded. A JSON body goes through internal/model's JSON codec,
// which scans the common body by hand and hands any other to encoding/json,
// so every error text is encoding/json's. A frame body is split in place
// (model.SplitFrames), and its grammar is checked before anything applies: a
// bad header, a cut or oversized frame, a frame of the wrong kind, a batch
// without its closing 'E' or with frames after it all answer the whole
// request with a plain HTTP envelope — 422 for an alien version, 400
// otherwise. On the batch route the model is judged next (404) and emptiness
// last (400). What can go wrong with one assignment of a well-formed stream
// travels in-band as a '!' frame with a code from the stable table, so one
// bad frame does not poison its neighbours.
//
// Decoding the whole request first is also what keeps the HTTP/1.x rule: a
// handler must consume the request stream before it writes a response byte,
// or the server may discard the rest of the body.

// WireContentType marks an HTTP body as an MCDC binary frame stream (the
// internal/model wire codec). POST /v1/assign and /v1/assign/batch sniff it
// to select the frame codec; everything else on those routes is JSON.
const WireContentType = "application/x-mcdc-frame"

// maxBodyBytes bounds every request body either tier reads, in either codec.
const maxBodyBytes = 64 << 20

// readBody reads a request body whole, answering an unreadable or oversized
// one 400 with the text decodeJSON gives it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return data, true
}

// decodeJSON decodes a JSON request body, bounded as readBody bounds it,
// into v, refusing unknown fields.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// readWire reads a frame-stream body and splits it in place, appending its
// frames to dst. A stream that does not split answers with the error
// ReadWireHeader or ReadFrame gives for it: 422 for an alien version, 400
// otherwise.
func readWire(w http.ResponseWriter, r *http.Request, dst []model.Frame) ([]model.Frame, bool) {
	raw, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	frames, err := model.SplitFrames(raw, dst)
	if err == nil {
		return frames, true
	}
	var verr *model.WireVersionError
	if errors.As(err, &verr) {
		writeError(w, http.StatusUnprocessableEntity, codeVersionMismatch, "%v", err)
	} else {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
	}
	return nil, false
}

// readAssign decodes a POST /v1/assign body into its 'A' frames, in request
// order, appending them to dst. A JSON single becomes the one frame a frame
// client would have sent for it.
func readAssign(w http.ResponseWriter, r *http.Request, dst []model.Frame) (frames []model.Frame, wire, ok bool) {
	if r.Header.Get("Content-Type") != WireContentType {
		body, ok := readBody(w, r)
		if !ok {
			return nil, false, false
		}
		payload, err := model.DecodeAssignJSON(nil, body)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
			return nil, false, false
		}
		return append(dst, model.Frame{Kind: model.FrameAssign, Payload: payload}), false, true
	}
	if frames, ok = readWire(w, r, dst); !ok {
		return nil, true, false
	}
	for _, f := range frames {
		if f.Kind != model.FrameAssign {
			writeError(w, http.StatusBadRequest, codeBadRequest, "unexpected frame kind %q in assign stream", f.Kind)
			return nil, true, false
		}
	}
	return frames, true, true
}

// assignBatch is a POST /v1/assign/batch body decoded at the edge.
type assignBatch struct {
	wire   bool
	model  string
	chunks [][][]int // the client's row chunks in order; a JSON body is one
	rows   int       // over all chunks
}

// readAssignBatch decodes a POST /v1/assign/batch body; a frame body goes
// through model.DecodeBatchFrames. The caller then judges the model, and
// only after that whether the batch is empty.
func readAssignBatch(w http.ResponseWriter, r *http.Request) (b assignBatch, ok bool) {
	var err error
	if b.wire = r.Header.Get("Content-Type") == WireContentType; b.wire {
		frames, ok := readWire(w, r, nil)
		if !ok {
			return b, false
		}
		if b.model, b.chunks, err = model.DecodeBatchFrames(frames); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return b, false
		}
	} else {
		body, ok := readBody(w, r)
		if !ok {
			return b, false
		}
		var rows [][]int
		if b.model, rows, err = model.DecodeBatchJSON(body); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
			return b, false
		}
		b.chunks = [][][]int{rows}
	}
	for _, chunk := range b.chunks {
		b.rows += len(chunk)
	}
	return b, true
}

// errorFrame is an in-band error answering one 'A' frame. Its code must come
// from the stable table, as writeError's does.
func errorFrame(code, msg string) model.Frame {
	return model.Frame{Kind: model.FrameError, Payload: model.AppendError(nil, code, msg)}
}

// appendReply appends f to a reply stream.
func appendReply(out *bytes.Buffer, f model.Frame) {
	_ = model.WriteFrame(out, f.Kind, f.Payload)
}

// writeAssignReply answers POST /v1/assign from its reply stream: the wire
// header, then one 'a' result or '!' error frame per 'A' frame, in request
// order. A frame client gets the stream as it is, a JSON client its one
// frame as writeReplyJSON shapes it.
func writeAssignReply(w http.ResponseWriter, wire bool, stream []byte) {
	if wire {
		w.Header().Set("Content-Type", WireContentType)
		_, _ = w.Write(stream)
		return
	}
	frames, _ := model.SplitFrames(stream, make([]model.Frame, 0, 1))
	writeReplyJSON(w, frames[0])
}

// writeReplyJSON answers a JSON single from its reply frame: an error
// becomes the envelope with the status the code table pairs with its code.
func writeReplyJSON(w http.ResponseWriter, reply model.Frame) {
	switch reply.Kind {
	case model.FrameResult:
		if body, err := model.AppendResultJSON(nil, reply.Payload); err == nil {
			writeJSONBody(w, http.StatusOK, body)
			return
		}
	case model.FrameError:
		if code, msg, err := model.DecodeError(reply.Payload); err == nil {
			//lint:mcdcvet-ignore errenvelope code decoded from an in-band error frame, which gateway and daemon draw only from the stable table
			writeError(w, codeStatus(code), code, "%s", msg)
			return
		}
	}
	writeError(w, http.StatusBadGateway, codeBadGateway, "malformed backend answer (frame kind %q)", reply.Kind)
}

// writeBatchReply answers POST /v1/assign/batch with asgs, one per row in
// request order, row i served by a snapshot of epoch(i). A JSON client gets
// every row with its epoch; a frame client gets the reply stream
// model.AppendBatchReplyFrames builds. The top-level epoch is row 0's.
func writeBatchReply(w http.ResponseWriter, in *assignBatch, asgs []model.Assignment, epoch func(i int) int) {
	if in.wire {
		w.Header().Set("Content-Type", WireContentType)
		_, _ = w.Write(model.AppendBatchReplyFrames(nil, in.model, epoch(0), in.chunks, asgs))
		return
	}
	// A snapshot's similarities are always finite, so one that JSON
	// cannot spell came from a gateway's backend.
	body, err := model.AppendBatchReplyJSON(nil, in.model, asgs, epoch)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeBadGateway, "malformed backend answer: %v", err)
		return
	}
	writeJSONBody(w, http.StatusOK, body)
}
