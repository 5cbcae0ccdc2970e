// Package stream extends MCDC to dynamically distributed data — research
// direction (2) of the paper's concluding remarks. A Clusterer maintains the
// most recent window of a categorical object stream, serves per-object
// cluster assignments online against the current multi-granular model, and
// re-learns the model (a full MGCPL pass over the window) when the stream
// drifts away from it or a refresh interval elapses. An arrival drifts when
// its best similarity is below the constant DriftThreshold.
package stream

import (
	"errors"
	"fmt"
	"math/rand"

	"mcdc/internal/categorical"
	"mcdc/internal/core"
	"mcdc/internal/model"
	"mcdc/internal/similarity"
)

// DriftThreshold is the assignment-similarity level below which an arrival
// counts as poorly explained by the current model. The daemon's drift
// counters use the same level.
const DriftThreshold = 0.2

// Config parameterizes a streaming clusterer.
type Config struct {
	// Cardinalities fixes the value-domain sizes of the stream's features.
	Cardinalities []int
	// WindowSize is the number of most recent objects kept for model
	// re-learning (default 1000).
	WindowSize int
	// RefreshEvery re-learns the model after this many arrivals even
	// without drift (default WindowSize).
	RefreshEvery int
	// DriftFraction is the share of arrivals since the last refresh that
	// must fall below DriftThreshold to trigger an early re-learning
	// (default 0.3).
	DriftFraction float64
	// MGCPL configures the underlying analysis. Its Rand is required:
	// NewClusterer draws the clusterer's seed from it once.
	MGCPL core.MGCPLConfig
}

// Assignment reports where an arrival landed.
type Assignment struct {
	Cluster    int     // cluster id in the current model (stable between refreshes)
	Similarity float64 // object–cluster similarity of the chosen cluster
	ModelEpoch int     // increments every time the model is re-learned
}

var errNoCardinalities = errors.New("stream: cardinalities required")

// Clusterer is an online multi-granular clusterer over a categorical stream.
// It is not safe for concurrent use; wrap it if multiple goroutines feed it.
type Clusterer struct {
	cfg    Config
	seed   int64   // fixed at construction; see relearnRand
	window [][]int // ring buffer of recent objects
	next   int     // ring cursor

	tables     *similarity.Tables // frequency tables of the current model
	k          int
	epoch      int
	sinceFresh int
	drifted    int
	kappa      []int
}

// NewClusterer builds a streaming clusterer. The model starts empty; the
// first WindowSize arrivals are absorbed into a single provisional cluster
// until the first re-learning happens.
func NewClusterer(cfg Config) (*Clusterer, error) {
	if len(cfg.Cardinalities) == 0 {
		return nil, errNoCardinalities
	}
	if cfg.MGCPL.Rand == nil {
		return nil, core.ErrNoRand
	}
	return newClusterer(cfg, cfg.MGCPL.Rand.Int63()), nil
}

// newClusterer applies the defaults and fixes the seed every re-learning
// derives its random stream from.
func newClusterer(cfg Config, seed int64) *Clusterer {
	cfg.MGCPL.Rand = nil // each re-learning builds its own; see relearnRand
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 1000
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = cfg.WindowSize
	}
	if cfg.DriftFraction <= 0 {
		cfg.DriftFraction = 0.3
	}
	return &Clusterer{cfg: cfg, seed: seed, window: make([][]int, 0, cfg.WindowSize)}
}

// Kappa returns the granularity series of the current model (nil before the
// first re-learning).
func (c *Clusterer) Kappa() []int { return append([]int(nil), c.kappa...) }

// ModelEpoch returns how many times the model has been re-learned.
func (c *Clusterer) ModelEpoch() int { return c.epoch }

// K returns the number of clusters in the current model (0 before the first
// re-learning).
func (c *Clusterer) K() int { return c.k }

// checkRow rejects a row of the wrong width, or with a value that is neither
// Missing nor inside its feature's domain. Such a row must never reach the
// window: the re-learner indexes its frequency tables by value code.
func checkRow(card, row []int) error {
	if len(row) != len(card) {
		return fmt.Errorf("row has %d features, schema has %d", len(row), len(card))
	}
	for r, v := range row {
		if v != categorical.Missing && (v < 0 || v >= card[r]) {
			return fmt.Errorf("feature %d value %d outside domain [0, %d)", r, v, card[r])
		}
	}
	return nil
}

// Add ingests one object and returns its assignment under the current model.
// A row checkRow rejects leaves the clusterer untouched.
func (c *Clusterer) Add(row []int) (Assignment, error) {
	if err := checkRow(c.cfg.Cardinalities, row); err != nil {
		return Assignment{}, fmt.Errorf("stream: %w", err)
	}
	own := append([]int(nil), row...)
	if len(c.window) < c.cfg.WindowSize {
		c.window = append(c.window, own)
	} else {
		c.window[c.next] = own
		c.next = (c.next + 1) % c.cfg.WindowSize
	}
	c.sinceFresh++

	assign := Assignment{Cluster: 0, ModelEpoch: c.epoch}
	if c.tables != nil {
		best, bestSim := 0, -1.0
		for l := 0; l < c.k; l++ {
			if c.tables.Size(l) == 0 {
				continue
			}
			// Probe similarity without mutating the model tables.
			if s := c.tables.ProbeSim(own, l); s > bestSim {
				best, bestSim = l, s
			}
		}
		assign.Cluster = best
		assign.Similarity = bestSim
		if bestSim < DriftThreshold {
			c.drifted++
		}
	} else {
		c.drifted++
	}

	needRefresh := c.sinceFresh >= c.cfg.RefreshEvery ||
		(float64(c.drifted)/float64(c.sinceFresh) >= c.cfg.DriftFraction &&
			c.sinceFresh >= c.cfg.WindowSize/4)
	if needRefresh && len(c.window) >= 2 {
		if err := c.relearn(); err != nil {
			return assign, err
		}
		assign.ModelEpoch = c.epoch
	}
	return assign, nil
}

// Snapshot checkpoints the clusterer into a serializable StreamState: the
// configuration, the seed, the window ring in physical slot order, the drift
// counters, and the current model tables. It only reads: the clusterer
// continues exactly as if it had never been snapshotted, and so does any
// Restore of the state.
func (c *Clusterer) Snapshot() *model.StreamState {
	st := &model.StreamState{
		Cardinalities:  append([]int(nil), c.cfg.Cardinalities...),
		WindowSize:     c.cfg.WindowSize,
		RefreshEvery:   c.cfg.RefreshEvery,
		DriftFraction:  c.cfg.DriftFraction,
		LearningRate:   c.cfg.MGCPL.LearningRate,
		InitialK:       c.cfg.MGCPL.InitialK,
		RivalThreshold: c.cfg.MGCPL.RivalThreshold,
		Workers:        c.cfg.MGCPL.Workers,
		Window:         make([][]int, len(c.window)),
		Next:           c.next,
		K:              c.k,
		Epoch:          c.epoch,
		SinceFresh:     c.sinceFresh,
		Drifted:        c.drifted,
		Kappa:          append([]int(nil), c.kappa...),
		RandSeed:       c.seed,
	}
	for i, row := range c.window {
		st.Window[i] = append([]int(nil), row...)
	}
	if c.tables != nil {
		st.Tables = c.tables.State()
	}
	return st
}

// Restore rebuilds a clusterer from a checkpoint. The restored clusterer's
// subsequent behavior is bit-for-bit identical to the snapshotted original's.
func Restore(st *model.StreamState) (*Clusterer, error) {
	if st == nil {
		return nil, errors.New("stream: nil checkpoint")
	}
	if len(st.Cardinalities) == 0 {
		return nil, errNoCardinalities
	}
	c := newClusterer(Config{
		Cardinalities: append([]int(nil), st.Cardinalities...),
		WindowSize:    st.WindowSize,
		RefreshEvery:  st.RefreshEvery,
		DriftFraction: st.DriftFraction,
		MGCPL: core.MGCPLConfig{
			LearningRate:   st.LearningRate,
			InitialK:       st.InitialK,
			RivalThreshold: st.RivalThreshold,
			Workers:        st.Workers,
		},
	}, st.RandSeed)
	if len(st.Window) > c.cfg.WindowSize {
		return nil, fmt.Errorf("stream: checkpoint window holds %d objects, capacity is %d", len(st.Window), c.cfg.WindowSize)
	}
	if st.Next < 0 || (st.Next != 0 && st.Next >= len(st.Window)) {
		return nil, fmt.Errorf("stream: checkpoint ring cursor %d out of range for %d objects", st.Next, len(st.Window))
	}
	c.window = make([][]int, len(st.Window), c.cfg.WindowSize)
	for i, row := range st.Window {
		if err := checkRow(c.cfg.Cardinalities, row); err != nil {
			return nil, fmt.Errorf("stream: checkpoint row %d: %w", i, err)
		}
		c.window[i] = append([]int(nil), row...)
	}
	c.next = st.Next
	c.k = st.K
	c.epoch = st.Epoch
	c.sinceFresh = st.SinceFresh
	c.drifted = st.Drifted
	c.kappa = append([]int(nil), st.Kappa...)
	if st.Tables != nil {
		t, err := similarity.FromState(st.Tables)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint tables: %w", err)
		}
		if t.D() != len(c.cfg.Cardinalities) {
			return nil, fmt.Errorf("stream: checkpoint tables cover %d features, schema has %d", t.D(), len(c.cfg.Cardinalities))
		}
		if t.K() != st.K {
			return nil, fmt.Errorf("stream: checkpoint claims k = %d but its tables hold %d cluster slots", st.K, t.K())
		}
		c.tables = t
	}
	return c, nil
}

// relearnRand returns the random stream of the re-learning that produces
// model epoch+1: a pure function of the clusterer's seed and the epoch, both
// of which the checkpoint holds. The splitmix64 finalizer spreads
// consecutive epochs over unrelated seeds.
func relearnRand(seed int64, epoch int) *rand.Rand {
	z := uint64(seed) + uint64(epoch+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// relearn runs MGCPL over the current window and rebuilds the model tables
// from the coarsest partition.
func (c *Clusterer) relearn() error {
	cfg := c.cfg.MGCPL
	cfg.Rand = relearnRand(c.seed, c.epoch)
	res, err := core.RunMGCPL(c.window, c.cfg.Cardinalities, cfg)
	if err != nil {
		return fmt.Errorf("stream: relearn: %w", err)
	}
	final := res.Final()
	tables, err := similarity.NewTables(c.window, c.cfg.Cardinalities, final.K)
	if err != nil {
		return fmt.Errorf("stream: rebuild tables: %w", err)
	}
	for i, l := range final.Labels {
		tables.Add(i, l)
	}
	// The model needs the counts, not the window's row index: tables
	// restored from their state hold no rows, as a resumed checkpoint's do,
	// so a session does not keep the window's term-row offsets alive.
	if c.tables, err = similarity.FromState(tables.State()); err != nil {
		return fmt.Errorf("stream: rebuild tables: %w", err)
	}
	c.k = final.K
	c.kappa = res.Kappa()
	c.epoch++
	c.sinceFresh = 0
	c.drifted = 0
	return nil
}
