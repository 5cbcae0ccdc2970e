package server

import (
	"testing"

	"mcdc/internal/analysis/passes/errenvelope"
)

// TestStableCodeTable pins the errenvelope analyzer's code table to the
// constants actually declared here. The codes are a machine contract (PR 6):
// the analyzer rejects writeError calls with off-table codes, so if the two
// tables drift apart the analyzer either misses a new code or flags a legal
// one. Extend errors.go and the analyzer in the same commit; this test is
// what fails when one side is forgotten.
func TestStableCodeTable(t *testing.T) {
	declared := []string{
		codeBadRequest,
		codeUnknownModel,
		codeUnknownSession,
		codeConflict,
		codeVersionMismatch,
		codeOverloaded,
		codeBadGateway,
		codeForbidden,
		codeInternal,
	}
	table := errenvelope.StableCodes()
	for _, code := range declared {
		if !table[code] {
			t.Errorf("code %q is declared in errors.go but missing from the errenvelope analyzer table", code)
		}
	}
	if len(table) != len(declared) {
		t.Errorf("errenvelope table has %d codes, errors.go declares %d — the tables must move in lockstep", len(table), len(declared))
	}
}
