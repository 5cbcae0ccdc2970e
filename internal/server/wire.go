package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mcdc/internal/model"
)

// WireContentType marks an HTTP body as an MCDC binary frame stream (the
// internal/model wire codec). POST /v1/assign and /v1/assign/batch sniff it
// to select the binary fast path; everything else on those routes is JSON.
const WireContentType = "application/x-mcdc-frame"

// Error layering, both wire handlers: failures *before* any response byte is
// written (bad wire header, alien version, unknown model at batch start, a
// malformed batch stream, an admission shed in the middleware) answer as
// ordinary HTTP statuses with the JSON error envelope — the caller hasn't
// committed to decoding frames yet. Once the response stream is claimed the
// status is already 200, so failures travel in-band as '!' frames carrying
// the same stable code table.
//
// HTTP/1.x is half-duplex for handlers: once a response byte is flushed the
// server may discard the rest of the request body. Both handlers therefore
// consume the request stream completely — assigning as frames arrive, so the
// input is never buffered whole — and only then write the response. What is
// held in memory is the compact result set (a few words per row), never the
// row data itself.

// readWireHeader validates the request's wire header, answering pre-stream
// failures as plain HTTP errors while the response is still unclaimed.
func (s *Server) readWireHeader(w http.ResponseWriter, br *bufio.Reader) bool {
	err := model.ReadWireHeader(br)
	if err == nil {
		return true
	}
	s.metrics.assignErrors.Add(1)
	var verr *model.WireVersionError
	if errors.As(err, &verr) {
		writeError(w, http.StatusUnprocessableEntity, codeVersionMismatch, "%v", err)
	} else {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
	}
	return false
}

func writeErrorFrame(w io.Writer, code, msg string) {
	_ = model.WriteFrame(w, model.FrameError, model.AppendError(nil, code, msg))
}

// handleAssignWire serves pipelined binary assignment: the request body is a
// wire stream of 'A' frames, the response a wire stream answering each in
// order with an 'a' result or an in-band '!' error (mirroring the JSON
// endpoint's independent per-request semantics, so one bad frame does not
// poison its neighbours). One persistent connection carries many assignments
// with no per-request HTTP overhead — the high-QPS path BenchmarkServerAssign
// gates. Responses accumulate (result frames are ~30 bytes each) and are
// written once the request stream ends.
func (s *Server) handleAssignWire(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(r.Body)
	if !s.readWireHeader(w, br) {
		return
	}
	var out bytes.Buffer
	if err := model.WriteWireHeader(&out); err != nil {
		return
	}
	// Each session frame derives its own replay id from the request id, the
	// session, and a per-session sequence number within this stream. The
	// per-session numbering (not stream position) makes the id invariant
	// under regrouping: a gateway that resends one session's frames to a
	// promoted replica delivers them in the same relative order, so the ids
	// match and the replay cache absorbs an ambiguous first delivery.
	// Legitimate duplicate rows within one stream still apply individually —
	// their sequence numbers differ.
	reqID := r.Header.Get(RequestIDHeader)
	seq := make(map[string]int)
	// One payload buffer, one decoded request and one result buffer serve
	// the whole stream. Every consumer that keeps a row copies it (the
	// traffic window, a session's clusterer and replay cache), so the row
	// scratch is free again once assignOne returns.
	var (
		payload, scratch []byte
		req              model.AssignRequest
	)
	for {
		kind, p, err := model.ReadFrame(br, payload)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.metrics.assignErrors.Add(1)
			writeErrorFrame(&out, codeBadRequest, err.Error())
			break
		}
		payload = p
		if kind != model.FrameAssign {
			s.metrics.assignErrors.Add(1)
			writeErrorFrame(&out, codeBadRequest, fmt.Sprintf("unexpected frame kind %q in assign stream", kind))
			break
		}
		if err := req.Decode(payload); err != nil {
			s.metrics.assignErrors.Add(1)
			writeErrorFrame(&out, codeBadRequest, err.Error())
			continue
		}
		modelName, session := s.registry.name(req.Model), string(req.Session)
		frameID := ""
		if reqID != "" && session != "" {
			frameID = reqID + "#" + session + "#" + strconv.Itoa(seq[session])
			seq[session]++
		}
		_, code, aerr := s.assignOne(modelName, session, req.Row, frameID, func(resp assignResponse) {
			// Serialized inside emit: resp.Encoding aliases the pooled
			// assigner scratch, valid only until assignOne returns.
			scratch = model.AppendResult(scratch[:0], model.Assignment{
				Cluster: resp.Cluster, Similarity: resp.Similarity, Encoding: resp.Encoding,
			}, resp.Epoch)
			_ = model.WriteFrame(&out, model.FrameResult, scratch)
		})
		if aerr != nil {
			//lint:mcdcvet-ignore errenvelope code relayed from assignOne, which draws only from the stable table
			writeErrorFrame(&out, code, aerr.Error())
		}
	}
	w.Header().Set("Content-Type", WireContentType)
	_, _ = w.Write(out.Bytes())
}

// handleAssignBatchWire serves a streamed binary batch. Request stream: one
// 'B' frame naming the model, any number of 'R' row chunks, then 'E'. Each
// chunk is assigned as it arrives — the row data is never buffered whole —
// and once the stream closes the response is written: one 'b' info frame
// (model, epoch), one 'r' results frame per input chunk, flushed chunk by
// chunk, and a closing 'E'. A malformed or truncated stream answers with a
// plain HTTP envelope, exactly like the JSON endpoint, since no response
// byte has been committed yet.
func (s *Server) handleAssignBatchWire(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(r.Body)
	if !s.readWireHeader(w, br) {
		return
	}
	kind, payload, err := model.ReadFrame(br, nil)
	if err != nil || kind != model.FrameBatchStart {
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "batch stream must open with a batch-start frame")
		return
	}
	name, err := model.DecodeBatchStart(payload)
	if err != nil {
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	sm, ok := s.registry.get(name)
	if !ok {
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusNotFound, codeUnknownModel, "no model %q", name)
		return
	}
	// The epoch is pinned once here: every chunk of this batch answers from
	// one snapshot even if a re-learn hot-swaps the model mid-stream,
	// matching the JSON endpoint's single-snapshot semantics.
	snap := sm.load()

	// Consume the whole request, assigning chunk by chunk. chunks records
	// the input chunk boundaries so the response mirrors them one-to-one.
	var results []model.Assignment
	var chunks []int
	for {
		kind, p, err := model.ReadFrame(br, payload)
		if err != nil {
			// Only io.EOF without a closing 'E' is a truncated request; any
			// other read error (an oversized frame, a stream cut mid-frame)
			// explains itself.
			s.metrics.assignErrors.Add(1)
			if err == io.EOF {
				err = errors.New("batch stream ended without an end frame")
			}
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		payload = p
		if kind == model.FrameEnd {
			break
		}
		if kind != model.FrameRows {
			s.metrics.assignErrors.Add(1)
			writeError(w, http.StatusBadRequest, codeBadRequest, "unexpected frame kind %q in batch stream", kind)
			return
		}
		rows, err := model.DecodeRows(payload)
		if err != nil {
			s.metrics.assignErrors.Add(1)
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		if len(rows) == 0 {
			continue
		}
		assignments, err := s.assignBatchRows(sm, snap, rows)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		results = append(results, assignments...)
		chunks = append(chunks, len(rows))
	}
	if len(chunks) == 0 {
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch")
		return
	}

	w.Header().Set("Content-Type", WireContentType)
	rc := http.NewResponseController(w)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	if err := model.WriteWireHeader(bw); err != nil {
		return
	}
	buf := model.AppendBatchInfo(nil, name, snap.Epoch)
	if err := model.WriteFrame(bw, model.FrameBatchInfo, buf); err != nil {
		return
	}
	off := 0
	for _, n := range chunks {
		buf = model.AppendResults(buf[:0], results[off:off+n])
		off += n
		if err := model.WriteFrame(bw, model.FrameResults, buf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		_ = rc.Flush()
	}
	_ = model.WriteFrame(bw, model.FrameEnd, nil)
}
