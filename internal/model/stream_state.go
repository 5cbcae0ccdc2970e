package model

import (
	"fmt"
	"io"
	"os"

	"mcdc/internal/similarity"
)

// StreamState is the serializable checkpoint of a streaming clusterer: its
// configuration, the ring-buffer window in physical order (plus cursor), the
// drift/refresh counters, and the current model tables. Restoring it resumes
// the stream exactly where it left off — the warm window survives a restart
// instead of being re-absorbed into a provisional single cluster.
type StreamState struct {
	// Cardinalities fixes the stream's feature schema.
	Cardinalities []int

	// Stream configuration (see stream.Config). Checkpoints written before
	// the drift threshold and MGCPL's loop bounds became constants also
	// carry those three values, which only ever held the defaults: gob skips
	// them here, and a build that still has the fields reads their absence
	// as zero, which it resolves to the same defaults.
	WindowSize    int
	RefreshEvery  int
	DriftFraction float64

	// MGCPL configuration (the numeric knobs of core.MGCPLConfig; the random
	// streams derive from RandSeed).
	LearningRate   float64
	InitialK       int
	RivalThreshold float64
	Workers        int

	// Window is the ring buffer in physical slot order; Next is the cursor.
	// Physical order matters: re-learning presents the window as stored, so
	// preserving slots (not just logical recency order) keeps post-restore
	// re-learnings bit-identical to the original's.
	Window [][]int
	Next   int

	// Model state.
	K          int
	Epoch      int
	SinceFresh int
	Drifted    int
	Kappa      []int
	// Tables holds the current model's frequency statistics; nil before the
	// first re-learning.
	Tables *similarity.TableState

	// RandSeed is the stream's fixed seed (format version 3): the
	// re-learning that produces epoch e+1 seeds its random stream from
	// (RandSeed, e), so a restore continues on the original's stream.
	RandSeed int64

	// OwnerEpoch is the session's ownership fencing token (format version 2).
	// Every replica promotion increments it; a backend receiving a shipped
	// checkpoint whose epoch is lower than what it already holds rejects the
	// ship, so a zombie primary that lost ownership cannot overwrite the
	// promoted replica's newer state. Fresh sessions start at 0.
	OwnerEpoch int64

	// Idempotent-replay cache (format version 2): the request id and response
	// of the last applied assignment. A retried assign carrying the same
	// non-empty request id and row returns this cached response without
	// re-applying the row, which makes gateway retries after an ambiguous
	// failure (owner died between checkpoint-ship and respond) exactly-once.
	LastReqID      string
	LastRow        []int
	LastCluster    int
	LastSimilarity float64
	LastModelEpoch int
}

// Save writes the checkpoint to w in the versioned envelope format.
func (st *StreamState) Save(w io.Writer) error {
	return writeEnvelope(w, kindStream, st)
}

// LoadStream reads a stream checkpoint from r, verifying magic, kind, and
// format version.
func LoadStream(r io.Reader) (*StreamState, error) {
	var st StreamState
	if err := readEnvelope(r, kindStream, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// LoadStreamFile reads a stream checkpoint from a file.
func LoadStreamFile(path string) (*StreamState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	st, err := LoadStream(f)
	if err != nil {
		return nil, fmt.Errorf("model: load %s: %w", path, err)
	}
	return st, nil
}
