package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's counters and latency histograms. Everything is
// an atomic — the assign hot path never takes a lock to record an
// observation, and the histograms (histogram.go) are fixed atomic arrays, so
// recording also never allocates.
type metrics struct {
	assignTotal  atomic.Int64 // single assignments served
	batchRows    atomic.Int64 // rows served through /assign/batch
	assignErrors atomic.Int64
	relearns     atomic.Int64 // background model swaps

	// Per-stage histograms, exported as mcdcd_stage_duration_seconds{stage=...}.
	// assignLat doubles as the legacy mcdcd_assign_latency_seconds family (it
	// was a summary; it is a histogram now, which keeps the _sum/_count series
	// names and adds _bucket).
	assignLat  histogram // stage="assign": one single-row assignment
	queueWait  histogram // stage="queue_wait": admission valve wait
	batchChunk histogram // stage="batch_chunk": one batch chunk fan-out
	checkpoint histogram // stage="checkpoint": one session checkpoint write
	relearnDur histogram // stage="relearn": one successful model re-learn

	http *httpMetrics // per-endpoint request/error/duration
}

func (m *metrics) observe(d time.Duration) { m.assignLat.observe(d) }

// httpMetrics counts requests, error responses, and request duration per
// registered route, so /metrics reflects every endpoint's traffic — not only
// the assign path. Routes register once at mux construction; after that the
// map is read-only and the counters are atomics, so recording stays
// lock-free.
type httpMetrics struct {
	order  []string
	routes map[string]*routeCounter
}

type routeCounter struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status ≥ 400
	dur      histogram
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{routes: make(map[string]*routeCounter)}
}

// handle registers fn on mux under pattern, wrapped with the route's
// counters and the request-scoped observability shell: the correlation id is
// resolved (minted or accepted) and echoed on the response before the
// handler runs — so error envelopes and 429 sheds carry it too — and the
// request is timed, recorded, and logged on the way out. Daemon and gateway
// register every route through it, once, under its /v1 pattern.
func (h *httpMetrics) handle(mux *http.ServeMux, o *obs, pattern string, fn http.HandlerFunc) {
	rc := &routeCounter{}
	h.routes[pattern] = rc
	h.order = append(h.order, pattern)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rc.requests.Add(1)
		id := ensureRequestID(r, o.ids)
		w.Header().Set(requestIDKey, id)
		sw := &statusWriter{ResponseWriter: w}
		started := time.Now()
		fn(sw, r)
		d := time.Since(started)
		rc.dur.observe(d)
		status := sw.status()
		if status >= http.StatusBadRequest {
			rc.errors.Add(1)
		}
		o.logRequest(r.Context(), id, pattern, status, sw.errCode, d)
	})
}

// write emits the per-endpoint counters and duration histograms under the
// given metric names.
func (h *httpMetrics) write(w io.Writer, reqName, errName, durName string) {
	fmt.Fprintf(w, "# HELP %s HTTP requests received, by endpoint.\n# TYPE %s counter\n", reqName, reqName)
	for _, pat := range h.order {
		fmt.Fprintf(w, "%s{endpoint=%q} %d\n", reqName, pat, h.routes[pat].requests.Load())
	}
	fmt.Fprintf(w, "# HELP %s HTTP error responses (status >= 400), by endpoint.\n# TYPE %s counter\n", errName, errName)
	for _, pat := range h.order {
		fmt.Fprintf(w, "%s{endpoint=%q} %d\n", errName, pat, h.routes[pat].errors.Load())
	}
	fmt.Fprintf(w, "# HELP %s HTTP request duration, by endpoint.\n# TYPE %s histogram\n", durName, durName)
	for _, pat := range h.order {
		h.routes[pat].dur.writeTo(w, durName, fmt.Sprintf("endpoint=%q", pat))
	}
}

// statusWriter records the response status (and any stable error code
// writeError emitted) for the error counters and the request log line. A
// handler that writes a body without an explicit WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	code    int
	wrote   bool
	errCode string // stable code of the error envelope, when one was written
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.code, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) status() int {
	if !sw.wrote {
		return http.StatusOK
	}
	return sw.code
}

func (sw *statusWriter) setErrorCode(code string) { sw.errCode = code }

// writeRuntimeMetrics emits Go runtime visibility under the given prefix:
// goroutine count, heap size, and GC activity — the first things an operator
// checks when a process misbehaves, without needing pprof attached.
func writeRuntimeMetrics(w io.Writer, prefix string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP %s_goroutines Live goroutines.\n# TYPE %s_goroutines gauge\n%s_goroutines %d\n",
		prefix, prefix, prefix, runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP %s_heap_alloc_bytes Heap bytes allocated and in use.\n# TYPE %s_heap_alloc_bytes gauge\n%s_heap_alloc_bytes %d\n",
		prefix, prefix, prefix, ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP %s_gc_pause_seconds_total Cumulative stop-the-world GC pause.\n# TYPE %s_gc_pause_seconds_total counter\n%s_gc_pause_seconds_total %g\n",
		prefix, prefix, prefix, float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "# HELP %s_gc_cycles_total Completed GC cycles.\n# TYPE %s_gc_cycles_total counter\n%s_gc_cycles_total %d\n",
		prefix, prefix, prefix, ms.NumGC)
}

// writeBuildInfo emits the build-metadata gauge (constant 1; the information
// rides the labels) from the single Version constant the -version flag also
// prints.
func writeBuildInfo(w io.Writer, name string) {
	fmt.Fprintf(w, "# HELP %s Build metadata (value is always 1).\n# TYPE %s gauge\n%s{version=%q,go_version=%q} 1\n",
		name, name, name, Version, runtime.Version())
}

// write emits the counters in Prometheus text exposition format, together
// with the per-model gauges read live from the registry and session pool.
// adm may be nil (admission control disabled); the valve series still emit
// as zeros so dashboards and the gateway aggregator see a uniform shape.
func (m *metrics) write(w io.Writer, reg *registry, pool *sessionPool, adm *admission, uptime time.Duration) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("mcdcd_assign_total", "Single-row assignments served.", m.assignTotal.Load())
	counter("mcdcd_assign_batch_rows_total", "Rows served through batch assignment.", m.batchRows.Load())
	counter("mcdcd_assign_errors_total", "Assignment requests rejected.", m.assignErrors.Load())
	counter("mcdcd_relearn_total", "Background re-learn model swaps.", m.relearns.Load())
	var shed, admittedN, depth, inflight int64
	if adm != nil {
		shed, admittedN = adm.shed.Load(), adm.admitted.Load()
		depth, inflight = adm.depth(), int64(adm.inflight())
	}
	counter("mcdcd_shed_total", "Assignment requests shed by admission control (429).", shed)
	counter("mcdcd_admitted_total", "Assignment requests admitted past the valve.", admittedN)
	gauge("mcdcd_queue_depth", "Assignment requests waiting for an in-flight slot.", depth)
	gauge("mcdcd_inflight", "Assignment requests currently executing.", inflight)
	counter("mcdcd_session_drift_total", "Session assignments below the drift similarity threshold.", pool.drift.Load())
	counter("mcdcd_sessions_evicted_total", "Streaming sessions evicted by the idle TTL sweeper.", pool.evicted.Load())
	counter("mcdcd_sessions_restored_total", "Streaming sessions paged in from checkpoints.", pool.restored.Load())
	counter("mcdcd_session_checkpoints_total", "Session checkpoint files written.", pool.checkpoints.Load())
	counter("mcdcd_replica_ships_total", "Session checkpoints shipped to a replica holder.", pool.shipped.Load())
	counter("mcdcd_replica_ship_failures_total", "Checkpoint ships that failed (replica coverage gap).", pool.shipFailures.Load())
	counter("mcdcd_replica_received_total", "Peer checkpoints accepted into the replica store.", pool.replicaRecv.Load())
	counter("mcdcd_replica_rejected_stale_total", "Peer checkpoints rejected by ownership-epoch fencing.", pool.replicaStale.Load())
	counter("mcdcd_sessions_promoted_total", "Replica checkpoints promoted to owned sessions.", pool.promoted.Load())
	counter("mcdcd_sessions_adopted_total", "Sessions adopted via checkpoint migration.", pool.adopted.Load())
	counter("mcdcd_assign_replays_total", "Session assignments answered from the idempotent replay cache.", pool.replayed.Load())
	replicaCount := int64(0)
	if pool.replicas != nil {
		replicaCount = int64(pool.replicas.count())
	}
	gauge("mcdcd_replicas", "Peer session replicas held in the replica store.", replicaCount)

	fmt.Fprintf(w, "# HELP mcdcd_assign_latency_seconds Single-assignment latency (JSON and binary paths).\n")
	fmt.Fprintf(w, "# TYPE mcdcd_assign_latency_seconds histogram\n")
	m.assignLat.writeTo(w, "mcdcd_assign_latency_seconds", "")

	fmt.Fprintf(w, "# HELP mcdcd_stage_duration_seconds Time spent per serving stage.\n")
	fmt.Fprintf(w, "# TYPE mcdcd_stage_duration_seconds histogram\n")
	m.queueWait.writeTo(w, "mcdcd_stage_duration_seconds", `stage="queue_wait"`)
	m.assignLat.writeTo(w, "mcdcd_stage_duration_seconds", `stage="assign"`)
	m.batchChunk.writeTo(w, "mcdcd_stage_duration_seconds", `stage="batch_chunk"`)
	m.checkpoint.writeTo(w, "mcdcd_stage_duration_seconds", `stage="checkpoint"`)
	m.relearnDur.writeTo(w, "mcdcd_stage_duration_seconds", `stage="relearn"`)

	fmt.Fprintf(w, "# HELP mcdcd_model_epoch Current re-learn epoch of each served model.\n# TYPE mcdcd_model_epoch gauge\n")
	models := reg.all()
	for _, sm := range models {
		fmt.Fprintf(w, "mcdcd_model_epoch{model=%q} %d\n", sm.name, sm.load().Epoch)
	}
	fmt.Fprintf(w, "# HELP mcdcd_model_drift_total Stateless assignments below the drift similarity threshold.\n# TYPE mcdcd_model_drift_total counter\n")
	for _, sm := range models {
		fmt.Fprintf(w, "mcdcd_model_drift_total{model=%q} %d\n", sm.name, sm.lowSim.Load())
	}
	fmt.Fprintf(w, "# HELP mcdcd_model_relearn_total Re-learn swaps of each served model.\n# TYPE mcdcd_model_relearn_total counter\n")
	for _, sm := range models {
		fmt.Fprintf(w, "mcdcd_model_relearn_total{model=%q} %d\n", sm.name, sm.relearns.Load())
	}

	m.http.write(w, "mcdcd_http_requests_total", "mcdcd_http_errors_total", "mcdcd_http_request_duration_seconds")

	fmt.Fprintf(w, "# HELP mcdcd_sessions Live streaming sessions.\n# TYPE mcdcd_sessions gauge\nmcdcd_sessions %d\n", pool.count())
	fmt.Fprintf(w, "# HELP mcdcd_uptime_seconds Daemon uptime.\n# TYPE mcdcd_uptime_seconds gauge\nmcdcd_uptime_seconds %g\n", uptime.Seconds())
	writeRuntimeMetrics(w, "mcdcd")
	writeBuildInfo(w, "mcdcd_build_info")
}
