package server

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mcdc/internal/core"
	"mcdc/internal/model"
)

// RelearnNow runs one re-learn sweep: each served model with at least
// RelearnMin buffered traffic rows is re-trained on that window and
// hot-swapped under a bumped epoch. The swap is a compare-and-swap against
// the snapshot the training started from — if an operator hot-swapped the
// model mid-training (POST /models), the stale re-learn result is discarded
// instead of silently reverting the operator's model. In-flight assignments
// finish against the epoch they loaded; new ones see the new epoch. It
// returns how many models were swapped.
func (s *Server) RelearnNow() int {
	swapped := 0
	for _, sm := range s.registry.all() {
		if sm.buf.len() < s.cfg.RelearnMin {
			continue
		}
		rows := sm.buf.take()
		cur := sm.load()
		started := time.Now()
		next, err := s.relearnModel(cur, rows)
		if err != nil {
			// Keep the window: the rows get another chance next sweep
			// instead of vanishing with the failed training.
			sm.buf.restore(rows)
			s.log.Warn("relearn failed", "model", sm.name, "err", err, "epoch", cur.Epoch)
			continue
		}
		if !sm.snap.CompareAndSwap(cur, next) {
			// The window goes back too — but only if the hot-swapped model
			// kept the schema the rows were domain-checked against;
			// otherwise they are invalid training traffic for it (the swap
			// already cleared the buffer for the same reason).
			if slices.Equal(sm.load().Cardinalities, cur.Cardinalities) {
				sm.buf.restore(rows)
			}
			s.log.Info("relearn discarded: model hot-swapped during training", "model", sm.name)
			continue
		}
		s.metrics.relearnDur.observe(time.Since(started))
		sm.relearns.Add(1)
		s.metrics.relearns.Add(1)
		swapped++
		s.log.Info("relearned model", "model", sm.name, "rows", len(rows),
			"epoch", next.Epoch, "k", next.K, "duration_ms", float64(time.Since(started))/float64(time.Millisecond))
	}
	return swapped
}

// relearnModel trains a replacement snapshot on the buffered window, keeping
// the served model's identity (name, k, schema) and bumping its epoch. The
// seed is derived from the daemon seed and the next epoch, so a re-learn
// sequence is reproducible for a fixed traffic history.
func (s *Server) relearnModel(cur *model.Snapshot, rows [][]int) (next *model.Snapshot, err error) {
	// The worker goroutine must survive anything training throws at it: a
	// panic here would take down the whole daemon, so it degrades to a
	// failed (and logged) re-learn instead.
	defer func() {
		if r := recover(); r != nil {
			next, err = nil, fmt.Errorf("re-learn panicked: %v", r)
		}
	}()
	if len(rows) < 2 {
		return nil, fmt.Errorf("window holds %d rows", len(rows))
	}
	res, err := core.RunMCDC(rows, cur.Cardinalities, core.MCDCConfig{
		MGCPL: core.MGCPLConfig{
			Workers: s.cfg.Workers,
			Rand:    rand.New(rand.NewSource(s.cfg.Seed + int64(cur.Epoch) + 1)),
		},
		CAME: core.CAMEConfig{K: cur.K, Workers: s.cfg.Workers},
	})
	if err != nil {
		return nil, err
	}
	next, err = model.Build(rows, cur.Cardinalities, res.Encoding, res.CAME.Modes, res.CAME.Theta, res.MGCPL.Kappa(), len(res.CAME.Modes))
	if err != nil {
		return nil, err
	}
	next.Name = cur.Name
	next.Epoch = cur.Epoch + 1
	next.Values = cur.Values
	return next, nil
}
