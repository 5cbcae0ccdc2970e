package mcdc

import (
	"io"
	"math/rand"

	"mcdc/internal/core"
	"mcdc/internal/model"
	"mcdc/internal/stream"
)

// StreamAssignment reports where a streamed object landed: its cluster under
// the current model, the similarity of that assignment, and the model epoch
// (which increments whenever the model is re-learned).
type StreamAssignment = stream.Assignment

// StreamClusterer clusters an unbounded stream of categorical objects: each
// Add returns an online assignment against the current multi-granular model,
// and the model is re-learned from the recent window when the stream drifts
// or a refresh interval passes. It extends MCDC to dynamic data, the paper's
// second future-work direction. Not safe for concurrent use.
type StreamClusterer struct {
	inner *stream.Clusterer
}

// StreamConfig configures NewStreamClusterer.
type StreamConfig struct {
	// Cardinalities fixes the per-feature domain sizes of the stream.
	Cardinalities []int
	// WindowSize is the number of recent objects kept for re-learning
	// (default 1000); RefreshEvery forces a periodic re-learning (default
	// WindowSize).
	WindowSize   int
	RefreshEvery int
	// Seed drives the underlying MGCPL analyses.
	Seed int64
	// Parallelism bounds the goroutines used by window re-learning
	// (≤ 0 → GOMAXPROCS, 1 → sequential); see WithParallelism for the
	// determinism contract.
	Parallelism int
}

// NewStreamClusterer builds a streaming multi-granular clusterer.
func NewStreamClusterer(cfg StreamConfig) (*StreamClusterer, error) {
	inner, err := stream.NewClusterer(stream.Config{
		Cardinalities: cfg.Cardinalities,
		WindowSize:    cfg.WindowSize,
		RefreshEvery:  cfg.RefreshEvery,
		MGCPL:         core.MGCPLConfig{Workers: cfg.Parallelism, Rand: rand.New(rand.NewSource(cfg.Seed))},
	})
	if err != nil {
		return nil, err
	}
	return &StreamClusterer{inner: inner}, nil
}

// Add ingests one integer-coded object and returns its assignment.
func (s *StreamClusterer) Add(row []int) (StreamAssignment, error) { return s.inner.Add(row) }

// K returns the number of clusters in the current model (0 before the first
// model is learned).
func (s *StreamClusterer) K() int { return s.inner.K() }

// Kappa returns the granularity series of the current model.
func (s *StreamClusterer) Kappa() []int { return s.inner.Kappa() }

// ModelEpoch returns how many times the model has been re-learned.
func (s *StreamClusterer) ModelEpoch() int { return s.inner.ModelEpoch() }

// Save checkpoints the clusterer to w as a versioned snapshot: the recent
// window, drift counters, and current model survive a restart. Saving
// changes nothing: this clusterer and any ResumeStreamClusterer of the
// checkpoint continue bit-for-bit as if it had never been saved.
func (s *StreamClusterer) Save(w io.Writer) error { return s.inner.Snapshot().Save(w) }

// ResumeStreamClusterer restores a streaming clusterer from a checkpoint
// written by Save, resuming exactly where the saved clusterer left off.
func ResumeStreamClusterer(r io.Reader) (*StreamClusterer, error) {
	st, err := model.LoadStream(r)
	if err != nil {
		return nil, err
	}
	inner, err := stream.Restore(st)
	if err != nil {
		return nil, err
	}
	return &StreamClusterer{inner: inner}, nil
}
