package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcdc/internal/core"
	"mcdc/internal/model"
	"mcdc/internal/server"
	"mcdc/internal/stream"
)

// The ladder measures single layers in process, with no socket: the packed
// assigner and the wire codec (model), each backend codec through
// Handler().ServeHTTP with an httptest.ResponseRecorder (server), and one
// stream session at the serving window (stream). It is the same on every
// workload; a traced run reports it next to the workload's own spans.

// ladderBudget is about how long each timed ladder step runs.
func ladderBudget(opt options) time.Duration {
	if opt.quick {
		return 5 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// timeOp returns op's duration in ns: the median over nine batches of the
// batch mean, with the batch grown until it takes about a tenth of budget.
func timeOp(budget time.Duration, op func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		if time.Since(t0) >= budget/10 || batch >= 1<<24 {
			break
		}
		batch *= 2
	}
	samples := make([]float64, 9)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		samples[s] = float64(time.Since(t0)) / float64(batch)
	}
	return median(samples)
}

func runLadder(res *result, modelPath string, pool [][]int, budget time.Duration) error {
	snap, err := model.LoadFile(modelPath)
	if err != nil {
		return err
	}
	allocRuns := 200
	if budget < 50*time.Millisecond {
		allocRuns = 5
	}
	if err := modelLadder(res, snap, pool, budget, allocRuns); err != nil {
		return err
	}
	if err := serverLadder(res, modelPath, pool, budget, allocRuns); err != nil {
		return err
	}
	return streamLadder(res, snap.Cardinalities, pool, budget)
}

func modelLadder(res *result, snap *model.Snapshot, pool [][]int, budget time.Duration, allocRuns int) error {
	asg := snap.NewAssigner()
	if _, err := asg.Assign(pool[0]); err != nil {
		return err
	}
	k := 0
	assign := func() {
		_, _ = asg.Assign(pool[k%len(pool)]) // pool rows are in the model's domain, checked above
		k++
	}
	res.set("model.assign_ns", timeOp(budget, assign))
	res.set("model.assign_allocs", testing.AllocsPerRun(allocRuns, assign))
	batch := pool[:256]
	if _, err := snap.AssignBatch(batch, 0); err != nil {
		return err
	}
	res.set("model.batch256_us", timeOp(budget, func() { _, _ = snap.AssignBatch(batch, 0) })/1e3)

	// One row's trip through the frame codec: request encode and decode,
	// then result encode and decode.
	a, err := snap.Assign(pool[0])
	if err != nil {
		return err
	}
	var buf []byte
	res.set("model.wire_row_ns", timeOp(budget, func() {
		buf = model.AppendAssignRequest(buf[:0], modelName, "", pool[k%len(pool)])
		_, _, _, _ = model.DecodeAssignRequest(buf)
		buf = model.AppendResult(buf[:0], a, 0)
		_, _, _ = model.DecodeResult(buf)
		k++
	}))
	return nil
}

// handlerOp builds one request and recorder per call and, when serve is
// set, runs it through h. The difference between serving and building
// alone is the handler's own cost.
func handlerOp(h http.Handler, path, ctype string, body []byte, serve bool) func() {
	return func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		if serve {
			h.ServeHTTP(rec, req)
		}
	}
}

func serverLadder(res *result, modelPath string, pool [][]int, budget time.Duration, allocRuns int) error {
	srv, err := server.New(backendConfig(false, ""))
	if err != nil {
		return err
	}
	defer srv.Close()
	if _, _, err := srv.LoadModelFile(modelName, modelPath); err != nil {
		return err
	}
	h := srv.Handler()

	single, err := json.Marshal(map[string]any{"model": modelName, "row": pool[0]})
	if err != nil {
		return err
	}
	var frames bytes.Buffer
	_ = model.WriteWireHeader(&frames)
	var payload []byte
	for _, row := range pool[:64] {
		payload = model.AppendAssignRequest(payload[:0], modelName, "", row)
		_ = model.WriteFrame(&frames, model.FrameAssign, payload)
	}
	batch, err := json.Marshal(map[string]any{"model": modelName, "rows": pool[:256]})
	if err != nil {
		return err
	}
	steps := []struct {
		name, path, ctype string
		body              []byte
		rows              int
		unit              float64 // ns per reported unit
	}{
		{"server.json_assign", "/v1/assign", "application/json", single, 1, 1},
		{"server.frame_assign", "/v1/assign", server.WireContentType, frames.Bytes(), 64, 1},
		{"server.json_batch256", "/v1/assign/batch", "application/json", batch, 1, 1e3},
	}
	for _, st := range steps {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, st.path, bytes.NewReader(st.body))
		req.Header.Set("Content-Type", st.ctype)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", st.name, rec.Code, rec.Body.String())
		}
		serve := handlerOp(h, st.path, st.ctype, st.body, true)
		build := handlerOp(h, st.path, st.ctype, st.body, false)
		ns := timeOp(budget, serve) - timeOp(budget, build)
		allocs := testing.AllocsPerRun(allocRuns, serve) - testing.AllocsPerRun(allocRuns, build)
		suffix := "_ns"
		if st.unit == 1e3 {
			suffix = "_us"
		}
		res.set(st.name+suffix, ns/float64(st.rows)/st.unit)
		res.set(st.name+"_allocs", allocs/float64(st.rows))
	}
	return nil
}

// streamLadder feeds one session's clusterer — configured as the daemon
// configures a session — until its window is full, then times arrivals,
// relearns, snapshots, and checkpoint encoding at that steady state.
func streamLadder(res *result, card []int, pool [][]int, budget time.Duration) error {
	c, err := stream.NewClusterer(stream.Config{
		Cardinalities: card,
		WindowSize:    sessionWindow,
		MGCPL:         core.MGCPLConfig{Rand: rand.New(rand.NewSource(1))},
	})
	if err != nil {
		return err
	}
	next := 0
	add := func() (time.Duration, bool, error) {
		epoch := c.ModelEpoch()
		t0 := time.Now()
		_, err := c.Add(pool[next%len(pool)])
		d := time.Since(t0)
		next++
		return d, c.ModelEpoch() != epoch, err
	}
	for i := 0; i < sessionWindow; i++ {
		if _, _, err := add(); err != nil {
			return err
		}
	}
	// Enough arrivals for several refreshes (one per window of arrivals).
	arrivals := 4 * sessionWindow
	if budget < 50*time.Millisecond {
		arrivals = sessionWindow + 8
	}
	var total time.Duration
	var relearns []time.Duration
	for i := 0; i < arrivals; i++ {
		d, relearned, err := add()
		if err != nil {
			return err
		}
		total += d
		if relearned {
			relearns = append(relearns, d)
		}
	}
	st := c.Snapshot()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		return err
	}
	// An arrival's cost amortizes the relearns it triggers, as a session
	// assignment pays for them.
	res.set("stream.add_us", us(total)/float64(arrivals))
	res.set("stream.relearn_ms", ms(medianDur(relearns)))
	res.set("stream.snapshot_us", timeOp(budget, func() { st = c.Snapshot() })/1e3)
	res.set("stream.save_us", timeOp(budget, func() {
		buf.Reset()
		_ = st.Save(&buf) // a bytes.Buffer write cannot fail; the first Save was checked
	})/1e3)
	res.set("stream.state_bytes", float64(buf.Len()))
	return nil
}
