// Package server is an errenvelope fixture shadowing the real serving
// package path, with stand-ins for the envelope emitters.
package server

import (
	"fmt"
	"net/http"
)

const (
	codeBadRequest   = "bad_request"
	codeUnknownModel = "unknown_model"
	codeMadeUp       = "made_up_code"
)

// writeJSON is the blessed status emitter: WriteHeader with a variable (or
// even constant) status is its job.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
}

// writeError emits the envelope; the real one lives in errors.go.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...), "code": code})
}

// errorFrame builds an in-band error frame; the real one lives in edge.go.
func errorFrame(code, msg string) []byte { return []byte(code + msg) }

func handleBad(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest) // want `http\.Error bypasses the .* envelope`
	w.WriteHeader(http.StatusBadRequest)         // want `WriteHeader\(400\) writes a bare error status`
	w.WriteHeader(503)                           // want `WriteHeader\(503\) writes a bare error status`
	writeError(w, 404, codeMadeUp, "x")          // want `writeError code "made_up_code" is not in the stable code table`
	writeError(w, 404, r.URL.Path, "x")          // want `writeError code argument must be a compile-time constant`
	_ = errorFrame("ad_hoc", "x")                // want `errorFrame code "ad_hoc" is not in the stable code table`
	_ = errorFrame(r.URL.Path, "x")              // want `errorFrame code argument must be a compile-time constant`
}

func handleGood(w http.ResponseWriter, r *http.Request, backendStatus int) {
	w.WriteHeader(http.StatusNoContent)                    // ok: success status
	w.WriteHeader(backendStatus)                           // ok: relayed variable status
	writeError(w, 400, codeBadRequest, "bad row")          // ok: table code by named constant
	writeError(w, 404, "unknown_model", "no model %q", "") // ok: table code by literal
	_ = errorFrame(codeUnknownModel, "x")                  // ok: in-band error with a table code
	//lint:mcdcvet-ignore errenvelope probe endpoint speaks raw status for liveness checkers
	w.WriteHeader(http.StatusServiceUnavailable)
}

// handlePairSelection is the status/code pair-selection idiom: the local
// ranges over table constants only, so the variable code argument is fine.
func handlePairSelection(w http.ResponseWriter, versionErr bool) {
	status, code := http.StatusBadRequest, codeBadRequest
	if versionErr {
		status, code = http.StatusNotFound, codeUnknownModel
	}
	writeError(w, status, code, "rejected") // ok: local assigned only table constants
}

func codeFromSomewhere() (int, string) { return 500, "bad_gateway" }

func handleOpaqueLocals(w http.ResponseWriter, versionErr bool) {
	code := codeBadRequest
	if versionErr {
		code = codeMadeUp
	}
	writeError(w, 400, code, "x") // want `writeError code argument must be a compile-time constant`

	status, relayed := codeFromSomewhere()
	writeError(w, status, relayed, "x") // want `writeError code argument must be a compile-time constant`
}
