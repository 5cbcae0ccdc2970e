// Package server implements mcdcd, the MCDC model-serving daemon: an
// HTTP/JSON front end over frozen model snapshots (internal/model) and
// streaming sessions (internal/stream). It institutionalizes the paper's
// batch-train / online-assign split — models are trained offline (cmd/mcdc
// -save), loaded into a hot-swappable registry, and queried concurrently.
// Every route is served under /v1 only — an unversioned path answers the
// mux's plain 404 — and every error is the structured envelope of errors.go:
//
//	POST /v1/models        load or hot-swap a named model from a snapshot file
//	GET  /v1/models        list served models (with cardinalities schema)
//	DELETE /v1/models/{name}
//	POST /v1/assign        assign one row (stateless "model" or stateful
//	                       "session"); JSON, or pipelined binary frames when
//	                       Content-Type is application/x-mcdc-frame
//	POST /v1/assign/batch  assign many rows, fanned out via internal/parallel;
//	                       the binary form carries them as chunks and is
//	                       answered chunk for chunk
//	POST /v1/sessions      create a streaming session (schema from a model)
//	DELETE /v1/sessions/{id}
//	POST /v1/checkpoint    flush every session checkpoint on demand
//	GET  /v1/healthz       liveness + model/session inventory
//	GET  /v1/metrics       Prometheus text: traffic, latency, epochs, drift,
//	                       admission queue depth and shed count
//
// Both assignment routes decode and encode either codec through the edge the
// gateway shares (edge.go): a body of up to 64 MiB is decoded whole before
// anything applies, a broken frame stream is refused whole, and one handler
// per route executes what the edge decoded. They sit behind admission
// control (admission.go): a bounded in-flight pool plus a bounded wait
// queue, shedding with 429 + Retry-After beyond that, so overload degrades
// predictably.
//
// Concurrency model: stateless assignment reads the snapshot through an
// atomic pointer (a background re-learn swaps epochs without blocking
// readers); sessions live in a lock-sharded pool and serialize only within
// one session, so concurrent streams scale across cores while each stream
// keeps the single-goroutine determinism contract of stream.Clusterer.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mcdc/internal/model"
	"mcdc/internal/stream"
)

// Config parameterizes the daemon.
type Config struct {
	// Seed drives re-learning and session randomness (default 1).
	Seed int64
	// Workers bounds each request's CPU fan-out (≤ 0 → GOMAXPROCS); results
	// are bit-for-bit identical at any setting (see mcdc.WithParallelism).
	Workers int
	// SessionShards is the lock-shard count of the session pool (default 16).
	SessionShards int
	// RelearnEvery enables the background re-learn worker: every interval,
	// models whose traffic buffer holds at least RelearnMin rows are
	// re-trained on that window and hot-swapped with a bumped epoch. 0
	// disables the worker (RelearnNow still re-learns on demand).
	RelearnEvery time.Duration
	// RelearnMin is the minimum buffered traffic before a re-learn
	// (default 64).
	RelearnMin int
	// BufferSize caps each model's traffic window (default 4096).
	BufferSize int
	// StateDir enables session durability: every streaming session
	// checkpoints to <StateDir>/sessions/<id>.ckpt (on the CheckpointEvery
	// cadence, on idle eviction, on POST /checkpoint, and on Close), and a
	// restart resumes every checkpointed session bit-for-bit. Empty disables
	// durability.
	StateDir string
	// CheckpointEvery is the periodic session-checkpoint interval when
	// StateDir is set (0 = checkpoint only on demand, eviction, and
	// shutdown). Each flush writes only sessions with unsaved state. A
	// checkpoint never changes a session's answers.
	CheckpointEvery time.Duration
	// Replicate enables fleet replication (requires StateDir): every session
	// assignment checkpoints before its response is written, and — once
	// ConfigureReplication names the fleet — the checkpoint bytes ship to the
	// session's ring successor so a warm standby can be promoted if this
	// daemon dies without losing an answered assignment.
	Replicate bool
	// SessionTTL evicts streaming sessions idle longer than this (0 = never).
	// With StateDir the eviction spills the session to disk and the next
	// touch pages it back in; without, eviction is deletion. Either way the
	// pool's memory stays bounded by the working set instead of the create
	// history.
	SessionTTL time.Duration
	// MaxInFlight bounds concurrently executing assignment requests
	// (/assign and /assign/batch, JSON and binary alike). 0 disables
	// admission control entirely.
	MaxInFlight int
	// QueueDepth bounds how many assignment requests may wait for an
	// in-flight slot before the server sheds with 429 + Retry-After.
	QueueDepth int
	// RetryAfter is the delay advertised in the Retry-After header of shed
	// responses (default 1s; the header rounds up to whole seconds).
	RetryAfter time.Duration
	// Logger receives structured operational and request logs (nil = silent).
	Logger *slog.Logger
	// LogSlow logs any request slower than this at Warn level, with its
	// request id, endpoint, status, and duration (0 disables).
	LogSlow time.Duration
}

// Server is the mcdcd daemon core, embeddable in tests and other processes.
type Server struct {
	cfg       Config
	start     time.Time
	registry  *registry
	sessions  *sessionPool
	metrics   *metrics
	mux       *http.ServeMux
	admission *admission // nil when Config.MaxInFlight is 0
	obs       *obs       // request ids + structured request logging
	log       *slog.Logger
	// fleetSecret authenticates intra-fleet endpoints (replication.go); set
	// by ConfigureReplication, empty = open (single-trust-domain deploys).
	fleetSecret string
	// assigners pools per-goroutine model.Assigner scratches for the
	// stateless assign hot path: Bind re-points a pooled scratch at the
	// current snapshot (no allocation across hot swaps of same-shaped
	// models), so steady-state /assign performs zero allocations in the
	// probe itself. Pooled entries must be Put back only after the response
	// is serialized — the Assignment.Encoding aliases the scratch — and
	// unbound first, so a pooled entry never pins a hot-swapped or deleted
	// snapshot in memory.
	assigners sync.Pool

	stopOnce  sync.Once
	flushOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds a daemon core, restores checkpointed sessions when StateDir is
// set, and starts the background workers (re-learn, periodic checkpoint,
// TTL sweep) that are configured. Call Close to stop them; with StateDir it
// also flushes a final checkpoint of every session.
func New(cfg Config) (*Server, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RelearnMin <= 0 {
		cfg.RelearnMin = 64
	}
	sessionsDir := ""
	if cfg.StateDir != "" {
		sessionsDir = filepath.Join(cfg.StateDir, "sessions")
		if err := os.MkdirAll(sessionsDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		registry:  newRegistry(),
		metrics:   &metrics{http: newHTTPMetrics()},
		mux:       http.NewServeMux(),
		admission: newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.RetryAfter),
		obs:       newObs(cfg.Logger, cfg.LogSlow),
		stop:      make(chan struct{}),
	}
	s.log = s.obs.log
	s.sessions = newSessionPool(cfg.SessionShards, sessionsDir, s.log, &s.metrics.checkpoint)
	if cfg.Replicate {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("server: Replicate requires a StateDir")
		}
		rs, err := newReplicaStore(filepath.Join(cfg.StateDir, "replicas"))
		if err != nil {
			return nil, fmt.Errorf("server: replica store: %w", err)
		}
		s.sessions.replicas = rs
	}
	s.assigners.New = func() any { return &model.Assigner{} }
	s.routes()
	if n := s.sessions.restoreAll(); n > 0 {
		s.log.Info("restored streaming sessions", "count", n, "dir", sessionsDir)
	}
	every(&s.wg, s.stop, cfg.RelearnEvery, func() { s.RelearnNow() })
	if cfg.StateDir != "" {
		every(&s.wg, s.stop, cfg.CheckpointEvery, func() { s.sessions.checkpointAll() })
	}
	if ttl := cfg.SessionTTL; ttl > 0 {
		// Sweep on a cadence of TTL/4, clamped so tests with millisecond TTLs
		// and deployments with day-long ones both behave.
		every(&s.wg, s.stop, min(max(ttl/4, 10*time.Millisecond), time.Minute), func() {
			if n := s.sessions.sweep(ttl); n > 0 {
				s.log.Info("evicted idle sessions", "count", n)
			}
		})
	}
	return s, nil
}

// every runs fn once per period on a goroutine of its own, counted in wg,
// until stop closes; a period ≤ 0 starts nothing. It is the one loop behind
// the daemon's re-learn, checkpoint and TTL sweeps and the gateway's health
// probe.
func every(wg *sync.WaitGroup, stop <-chan struct{}, period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// Close stops the background workers, waits for them, and — when running
// with a state directory — flushes a final checkpoint of every session so a
// graceful shutdown loses nothing.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.flushOnce.Do(func() {
		if n := s.sessions.checkpointAll(); n > 0 {
			s.log.Info("flushed session checkpoints on shutdown", "count", n)
		}
	})
}

// CheckpointSessions writes a checkpoint of every live session with unsaved
// state and returns how many were written (0 without a StateDir).
func (s *Server) CheckpointSessions() int { return s.sessions.checkpointAll() }

// SweepSessions evicts sessions idle longer than ttl (see Config.SessionTTL)
// and returns how many were evicted.
func (s *Server) SweepSessions(ttl time.Duration) int { return s.sessions.sweep(ttl) }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// LoadModelFile loads a snapshot file into the registry under name,
// hot-swapping any model already served under it. It returns the loaded
// snapshot and whether an existing model was replaced.
func (s *Server) LoadModelFile(name, path string) (*model.Snapshot, bool, error) {
	if err := validateName(name); err != nil {
		return nil, false, err
	}
	snap, err := model.LoadFile(path)
	if err != nil {
		return nil, false, err
	}
	replaced := s.registry.set(name, snap, s.cfg.BufferSize)
	s.log.Info("loaded model", "model", name, "path", path,
		"k", snap.K, "epoch", snap.Epoch, "features", snap.D(), "hot_swap", replaced)
	return snap, replaced, nil
}

// AddModel registers an in-memory snapshot (used by tests and embedders).
func (s *Server) AddModel(name string, snap *model.Snapshot) error {
	if err := validateName(name); err != nil {
		return err
	}
	s.registry.set(name, snap, s.cfg.BufferSize)
	return nil
}

func (s *Server) routes() {
	// Every route registers once, under /v1, through the instrumenting step
	// the gateway shares, so the per-endpoint request and error counters in
	// /v1/metrics cover all traffic, not just the assign path. The assignment
	// endpoints additionally pass through the admission valve and sniff
	// Content-Type: the binary frame protocol and JSON share one route per
	// operation.
	handle := func(pattern string, fn http.HandlerFunc) { s.metrics.http.handle(s.mux, s.obs, pattern, fn) }
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/metrics", s.handleMetrics)
	handle("GET /v1/models", s.handleListModels)
	handle("POST /v1/models", s.handleLoadModel)
	handle("DELETE /v1/models/{name}", s.handleDeleteModel)
	handle("POST /v1/assign", s.admit(s.handleAssign))
	handle("POST /v1/assign/batch", s.admit(s.handleAssignBatch))
	handle("POST /v1/sessions", s.handleCreateSession)
	handle("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	handle("POST /v1/checkpoint", s.handleCheckpoint)
	// Fleet endpoints (replication.go): replica shipping, failover promotion,
	// migration, and membership pushes. Guarded by the fleet secret when one
	// is configured.
	handle("GET /v1/sessions", s.fleetOnly(s.handleListSessions))
	handle("GET /v1/sessions/{id}/checkpoint", s.fleetOnly(s.handleSessionCheckpoint))
	handle("POST /v1/sessions/{id}/promote", s.fleetOnly(s.handlePromoteSession))
	handle("POST /v1/sessions/{id}/adopt", s.fleetOnly(s.handleAdoptSession))
	handle("POST /v1/replica/checkpoint", s.fleetOnly(s.handleReplicaCheckpoint))
	handle("DELETE /v1/replica/{id}", s.fleetOnly(s.handleReplicaDelete))
	handle("POST /v1/fleet", s.fleetOnly(s.handleFleet))
}

// ---- wire types ----

type modelInfo struct {
	Name     string `json:"name"`
	K        int    `json:"k"`
	Epoch    int    `json:"epoch"`
	Features int    `json:"features"`
	// Cardinalities is the per-feature domain size — enough schema for a
	// caller (mcdcload, the client package) to synthesize valid rows.
	Cardinalities []int `json:"cardinalities,omitempty"`
	Kappa         []int `json:"kappa,omitempty"`
	TrainN        int   `json:"train_n"`
	Buffered      int   `json:"buffered"`
}

type loadModelRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

type sessionRequest struct {
	Session string `json:"session"`
	// Model names a served model whose feature schema the session adopts.
	Model string `json:"model"`
	// Window overrides the session's re-learning window size.
	Window int `json:"window,omitempty"`
	// Seed fixes the session's random stream (default: the daemon seed).
	Seed int64 `json:"seed,omitempty"`
}

// ---- helpers ----

// bufferRow adds an assigned row to the model's re-learn window — but only
// when every value is inside the model's domain. Assign deliberately
// tolerates out-of-domain values (unseen categories score zero similarity),
// but the training path must never see them: similarity.NewTables indexes
// count tables by value code, so one poison row in the window would panic
// the background re-learner.
func bufferRow(sm *servedModel, snap *model.Snapshot, row []int) {
	for r, v := range row {
		if v < 0 || v >= snap.Cardinalities[r] {
			return
		}
	}
	sm.buf.add(row)
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string         `json:"status"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		Models        map[string]int `json:"models"` // name → epoch
		Sessions      int            `json:"sessions"`
		// Replication reports whether this daemon ships/accepts session
		// replicas; Replicas counts the peer checkpoints it holds. The
		// gateway's coverage probe reads these to tell "degraded but every
		// session recoverable" from "sessions lost".
		Replication bool `json:"replication"`
		Replicas    int  `json:"replicas"`
	}
	h := health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        make(map[string]int),
		Sessions:      s.sessions.count(),
		Replication:   s.cfg.Replicate,
	}
	if s.sessions.replicas != nil {
		h.Replicas = s.sessions.replicas.count()
	}
	for _, sm := range s.registry.all() {
		h.Models[sm.name] = sm.load().Epoch
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.registry, s.sessions, s.admission, time.Since(s.start))
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	infos := make([]modelInfo, 0)
	for _, sm := range s.registry.all() {
		snap := sm.load()
		infos = append(infos, modelInfo{
			Name:          sm.name,
			K:             snap.K,
			Epoch:         snap.Epoch,
			Features:      snap.D(),
			Cardinalities: snap.Cardinalities,
			Kappa:         snap.Kappa,
			TrainN:        snap.TrainN,
			Buffered:      sm.buf.len(),
		})
	}
	writeJSON(w, http.StatusOK, map[string][]modelInfo{"models": infos})
}

func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	var req loadModelRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	snap, replaced, err := s.LoadModelFile(req.Name, req.Path)
	if err != nil {
		status, code := http.StatusBadRequest, codeBadRequest
		var verr *model.VersionError
		if errors.As(err, &verr) {
			status, code = http.StatusUnprocessableEntity, codeVersionMismatch
		}
		writeError(w, status, code, "%v", err)
		return
	}
	// A first load creates the served resource (201); re-loading an already
	// served name is a hot swap of the existing one (200).
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, modelInfo{
		Name: req.Name, K: snap.K, Epoch: snap.Epoch, Features: snap.D(),
		Kappa: snap.Kappa, TrainN: snap.TrainN,
	})
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.remove(name) {
		writeError(w, http.StatusNotFound, codeUnknownModel, "no model %q", name)
		return
	}
	s.log.Info("unloaded model", "model", name)
	w.WriteHeader(http.StatusNoContent)
}

// handleAssign serves POST /v1/assign in either codec: each 'A' frame is
// assigned in request order and answered with an 'a' result or an in-band
// '!' error.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	var single [1]model.Frame // a JSON body's one frame
	frames, wire, ok := readAssign(w, r, single[:0])
	if !ok {
		s.metrics.assignErrors.Add(1)
		return
	}
	// A JSON single's replay id is the request id. Each session frame of a
	// stream derives its own from the request id, the session, and a
	// per-session sequence number within this stream. The per-session
	// numbering (not stream position) makes the id invariant under
	// regrouping: a gateway that resends one session's frames to a promoted
	// replica delivers them in the same relative order, so the ids match and
	// the replay cache absorbs an ambiguous first delivery. Legitimate
	// duplicate rows within one stream still apply individually — their
	// sequence numbers differ.
	reqID := r.Header.Get(requestIDKey)
	seq := make(map[string]int)
	// One decoded request, one result buffer and one reply stream serve the
	// whole request. Every consumer that keeps a row copies it (the traffic
	// window, a session's clusterer and replay cache), so the row scratch is
	// free again once assignOne returns.
	var (
		out     bytes.Buffer
		scratch = make([]byte, 0, 64) // holds an 'a' payload of a few dozen levels
		req     model.AssignRequest
	)
	_ = model.WriteWireHeader(&out)
	for _, f := range frames {
		if err := req.Decode(f.Payload); err != nil {
			s.metrics.assignErrors.Add(1)
			appendReply(&out, errorFrame(codeBadRequest, err.Error()))
			continue
		}
		session, id := string(req.Session), reqID
		if wire && session != "" && reqID != "" {
			id = reqID + "#" + session + "#" + strconv.Itoa(seq[session])
			seq[session]++
		}
		code, err := s.assignOne(s.registry.name(req.Model), session, req.Row, id, func(a model.Assignment, epoch int) {
			scratch = model.AppendResult(scratch[:0], a, epoch)
			_ = model.WriteFrame(&out, model.FrameResult, scratch)
		})
		if err != nil {
			s.metrics.assignErrors.Add(1)
			//lint:mcdcvet-ignore errenvelope code relayed from assignOne, which draws only from the stable table
			appendReply(&out, errorFrame(code, err.Error()))
		}
	}
	writeAssignReply(w, wire, out.Bytes())
}

// assignOne performs one assignment — stateless against a model when
// modelName is set, stateful against a session otherwise — and hands the
// result and its epoch to emit while any pooled assigner scratch is still
// bound: the Encoding aliases the scratch, so emit must serialize before
// returning. On failure it returns the stable error code and the message.
//
// reqID, when non-empty, makes a session assignment idempotent: a retry
// carrying the same id and row (a gateway redelivering after an ambiguous
// failure) replays the cached response instead of applying the row twice.
func (s *Server) assignOne(modelName, session string, row []int, reqID string, emit func(a model.Assignment, epoch int)) (string, error) {
	started := time.Now()
	switch {
	case modelName != "" && session != "":
		return codeBadRequest, errors.New("set either model or session, not both")
	case modelName != "":
		sm, ok := s.registry.get(modelName)
		if !ok {
			return codeUnknownModel, fmt.Errorf("no model %q", modelName)
		}
		snap := sm.load()
		asg := s.assigners.Get().(*model.Assigner)
		// Deferred so every return path (and a panicking emit) unbinds — a
		// pooled entry must never pin a hot-swapped snapshot — and the
		// scratch-aliased Encoding is serialized before the Put runs.
		defer func() {
			asg.Unbind()
			s.assigners.Put(asg)
		}()
		asg.Bind(snap)
		a, err := asg.Assign(row)
		if err != nil {
			return codeBadRequest, err
		}
		bufferRow(sm, snap, row)
		if a.Similarity < stream.DriftThreshold {
			sm.lowSim.Add(1)
		}
		s.metrics.assignTotal.Add(1)
		s.metrics.observe(time.Since(started))
		emit(a, snap.Epoch)
		return "", nil
	case session != "":
		a, found, err := s.sessions.assign(session, row, reqID)
		var verr *model.VersionError
		switch {
		case !found:
			return codeUnknownSession, fmt.Errorf("no session %q", session)
		case errors.As(err, &verr):
			return codeVersionMismatch, verr
		case err != nil:
			return codeBadRequest, err
		}
		s.metrics.assignTotal.Add(1)
		s.metrics.observe(time.Since(started))
		emit(model.Assignment{Cluster: a.Cluster, Similarity: a.Similarity}, a.ModelEpoch)
		return "", nil
	default:
		return codeBadRequest, errors.New("request names neither a model nor a session")
	}
}

// handleAssignBatch serves POST /v1/assign/batch in either codec. Every
// client chunk is assigned in order against one snapshot, pinned before the
// first — a re-learn that hot-swaps the model mid-request changes none of
// its answers — and the answer mirrors the client's chunks.
func (s *Server) handleAssignBatch(w http.ResponseWriter, r *http.Request) {
	in, ok := readAssignBatch(w, r)
	if !ok {
		s.metrics.assignErrors.Add(1)
		return
	}
	sm, known := s.registry.get(in.model)
	switch {
	case !known:
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusNotFound, codeUnknownModel, "no model %q", in.model)
		return
	case in.rows == 0:
		s.metrics.assignErrors.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch")
		return
	}
	snap := sm.load()
	results := make([]model.Assignment, 0, in.rows)
	for _, chunk := range in.chunks {
		if len(chunk) == 0 {
			continue
		}
		asgs, err := s.assignBatchRows(sm, snap, chunk)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		results = append(results, asgs...)
	}
	writeBatchReply(w, &in, results, func(int) int { return snap.Epoch })
}

// assignBatchRows fans one batch out against a resolved model under the
// repository's determinism contract (bit-for-bit identical at any worker
// count) and folds the rows into the re-learn window and drift counters.
// The returned encodings are block-carved by AssignBatch — safe to retain
// past the call, unlike assignOne's scratch-aliased single result.
func (s *Server) assignBatchRows(sm *servedModel, snap *model.Snapshot, rows [][]int) ([]model.Assignment, error) {
	started := time.Now()
	assignments, err := snap.AssignBatch(rows, s.cfg.Workers)
	if err != nil {
		s.metrics.assignErrors.Add(1)
		return nil, err
	}
	for i, a := range assignments {
		bufferRow(sm, snap, rows[i])
		if a.Similarity < stream.DriftThreshold {
			sm.lowSim.Add(1)
		}
	}
	s.metrics.batchRows.Add(int64(len(assignments)))
	s.metrics.batchChunk.observe(time.Since(started))
	return assignments, nil
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := validateName(req.Session); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	sm, ok := s.registry.get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownModel, "no model %q to take the session schema from", req.Model)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	if err := s.sessions.create(req.Session, sm.load().Cardinalities, req.Window, seed, s.cfg.Workers); err != nil {
		writeError(w, http.StatusConflict, codeConflict, "%v", err)
		return
	}
	s.log.Info("created session", "session", req.Session, "model", req.Model)
	writeJSON(w, http.StatusCreated, map[string]string{"session": req.Session})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		writeError(w, http.StatusNotFound, codeUnknownSession, "no session %q", id)
		return
	}
	// Retire the session's replica footprint: any copy held locally plus the
	// one shipped to this daemon's successor (best-effort; the gateway also
	// broadcasts replica deletes fleet-wide on its own delete path).
	if s.sessions.replicas != nil {
		s.sessions.replicas.drop(id)
	}
	if repl := s.sessions.repl.Load(); repl != nil {
		repl.dropReplica(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCheckpoint checkpoints every session with unsaved state on demand —
// the lever a deployment pulls to pin a durable cut point without waiting
// for the periodic sweep or a shutdown.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.StateDir == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "daemon runs without -state-dir; nothing to checkpoint to")
		return
	}
	n := s.sessions.checkpointAll()
	writeJSON(w, http.StatusOK, map[string]int{"checkpointed": n})
}
