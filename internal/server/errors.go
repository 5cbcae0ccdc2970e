package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The v1 error contract: every error response is a structured envelope
//
//	{"error": "<human message>", "code": "<stable code>"}
//
// with a code drawn from the closed table below. Messages are for humans and
// may change; codes are the machine contract — clients (including the public
// client package) branch on them, so adding a code is additive but renaming
// or removing one is a breaking API change.
const (
	// codeBadRequest: the request is malformed — bad JSON, bad wire frames,
	// a row of the wrong width, conflicting or missing target fields.
	codeBadRequest = "bad_request"
	// codeUnknownModel: the named model is not in the registry.
	codeUnknownModel = "unknown_model"
	// codeUnknownSession: the named session exists neither in memory nor as
	// a checkpoint on disk.
	codeUnknownSession = "unknown_session"
	// codeConflict: the resource exists already (session id taken).
	codeConflict = "conflict"
	// codeVersionMismatch: a snapshot file, session checkpoint or wire
	// stream carries an incompatible format-version byte.
	codeVersionMismatch = "version_mismatch"
	// codeOverloaded: admission control shed the request; retry after the
	// Retry-After header's delay.
	codeOverloaded = "overloaded"
	// codeBadGateway: a gateway could not complete the request against its
	// backends (transport failure or a malformed backend answer — backend
	// HTTP errors themselves are relayed unchanged, keeping their own code).
	codeBadGateway = "bad_gateway"
	// codeForbidden: an intra-fleet endpoint (replica shipping, promotion,
	// membership) was called without the configured fleet secret.
	codeForbidden = "forbidden"
	// codeInternal: the daemon failed on its own side, not the request — a
	// write to or read from its state dir failed (storing a replica,
	// installing a promoted session, flushing a checkpoint to serve it).
	codeInternal = "internal"
)

// codeStatus is the HTTP status the code table pairs with a stable code: the
// status a JSON single is answered with for the in-band error its one frame
// got, on a daemon or through a gateway.
func codeStatus(code string) int {
	switch code {
	case codeForbidden:
		return http.StatusForbidden
	case codeUnknownModel, codeUnknownSession:
		return http.StatusNotFound
	case codeConflict:
		return http.StatusConflict
	case codeVersionMismatch:
		return http.StatusUnprocessableEntity
	case codeOverloaded:
		return http.StatusTooManyRequests
	case codeBadGateway:
		return http.StatusBadGateway
	case codeInternal:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBody is writeJSON for a body already encoded.
func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError emits the structured error envelope with the given stable code.
// When the writer is the instrumented statusWriter, the code is also handed
// to it so the request log line can carry the machine-readable failure.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	if ec, ok := w.(interface{ setErrorCode(string) }); ok {
		ec.setErrorCode(code)
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}
