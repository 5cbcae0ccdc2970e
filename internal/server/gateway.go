package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdc/internal/hashring"
)

// Gateway is mcdcd's horizontal-scaling front end: a consistent-hash router
// over a fleet of backend daemons that all serve the same model snapshots.
// Placement is deterministic — a session id (and, for stateless traffic, a
// model+row digest) always lands on the same backend — so stateful streaming
// sessions live on exactly one backend and the fleet's answers are
// byte-identical to a single backend serving the same snapshots:
//
//	POST /v1/assign        routed by session id, or by model+row key
//	POST /v1/assign/batch  scattered across backends by row key, gathered in order
//	POST /v1/sessions      routed by session id (the session lives there)
//	DELETE /v1/sessions/{id}  routed likewise
//	POST /v1/models, DELETE /v1/models/{name}, POST /v1/checkpoint  broadcast to all
//	GET  /v1/models        proxied to the first healthy backend (fleet-identical)
//	GET  /v1/healthz       aggregated: ok only when every backend is up
//	GET  /v1/metrics       backend counters summed per series + gateway-local ones
//	GET  /v1/ring          placement debug: members, health, ?key= lookup
//	POST /v1/ring/join, /v1/ring/leave  membership changes (gateway_failover.go)
//
// Like the backends, the gateway serves every route under /v1 only. The
// assignment routes accept JSON and binary frames alike: the gateway decodes
// either with the daemon's own edge (edge.go), speaks frames to every backend
// (gateway_assign.go), and encodes the merged answer back in the client's
// codec, byte-identical to a solo backend's. A backend 429 (admission shed)
// relays to the caller unchanged — including Retry-After — and increments a
// per-backend shed counter in /v1/metrics.
//
// The gateway holds no model or session state itself: backends can restart
// (resuming their sessions from -state-dir) without the gateway noticing
// beyond failed requests during the gap.
type Gateway struct {
	cfg GatewayConfig
	// client proxies traffic; probe is a short-timeout client for health
	// checks — a hung backend must cost /healthz a bounded wait, not the
	// full proxy timeout.
	client *http.Client
	probe  *http.Client
	mux    *http.ServeMux
	httpm  *httpMetrics
	obs    *obs // request ids + structured request logging
	log    *slog.Logger
	start  time.Time

	// placeMu guards placement: ring membership, the backend list, and the
	// session overrides recorded by failover/migration. Request routing takes
	// it shared; ring join/leave takes it exclusively, which is what makes a
	// membership cutover atomic — no request can place against a half-updated
	// ring. stateMu guards the member map and is never held across a network
	// call, so membership changes (which do call out while holding placeMu)
	// can still read counters. Lock order: placeMu → stateMu.
	placeMu   sync.RWMutex
	backends  []string // normalized, deduped, sorted
	ring      *hashring.Ring
	overrides map[string]string // session id → backend, when off ring placement

	stateMu sync.RWMutex
	members map[string]*member // one record per backend (gateway_failover.go)

	failovers atomic.Int64 // sessions promoted onto a replica after owner loss

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Backends are the daemon addresses (host:port) the ring is built over.
	Backends []string
	// Replicas is the virtual-node count per backend: 0 or
	// hashring.DefaultReplicas, the count the backends' replicators place
	// replicas with. Any other count would put them off the failover chain.
	Replicas int
	// HealthEvery is the per-backend health-check cadence (0 disables the
	// checker; backends then stay marked up). Health feeds /healthz and
	// /metrics only — routing stays deterministic, because re-routing a
	// session away from its backend would abandon its state.
	HealthEvery time.Duration
	// Timeout bounds each proxied backend request (0 → 30s).
	Timeout time.Duration
	// Retries is how many times a transiently failed backend request
	// (connection refused/reset, timeout, severed connection) is retried
	// against the same backend before the gateway gives up on it and fails
	// over (< 0 disables; 0 → default 2). Application-level errors are never
	// retried — they are relayed verbatim.
	Retries int
	// RetryBackoff is the initial delay between retries; it doubles per
	// attempt and caps at 1s (0 → 25ms).
	RetryBackoff time.Duration
	// FleetSecret authenticates the gateway to the backends' intra-fleet
	// endpoints (promotion, migration, membership pushes) and must match the
	// backends' -fleet-secret.
	FleetSecret string
	// Transport overrides the HTTP transport used for backend traffic —
	// the fault-injection hook (internal/testenv.FaultRoundTripper). nil
	// uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logger receives structured operational and request logs (nil = silent).
	Logger *slog.Logger
	// LogSlow logs any request slower than this at Warn level, with its
	// request id, endpoint, status, and duration (0 disables).
	LogSlow time.Duration
}

// NewGateway builds a gateway over the configured backends and starts its
// health checker (when configured). Call Close to stop it.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	seen := make(map[string]bool)
	var backends []string
	for _, b := range cfg.Backends {
		b = strings.TrimSpace(b)
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("server: gateway needs at least one backend address")
	}
	sort.Strings(backends)
	if cfg.Replicas != 0 && cfg.Replicas != hashring.DefaultReplicas {
		return nil, fmt.Errorf("server: gateway ring replicas must be %d, the count the backends' replicators use (got %d)", hashring.DefaultReplicas, cfg.Replicas)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	probeTimeout := 2 * time.Second
	if timeout < probeTimeout {
		probeTimeout = timeout
	}
	g := &Gateway{
		cfg:       cfg,
		backends:  backends,
		ring:      hashring.New(hashring.DefaultReplicas),
		client:    &http.Client{Timeout: timeout, Transport: cfg.Transport},
		probe:     &http.Client{Timeout: probeTimeout, Transport: cfg.Transport},
		mux:       http.NewServeMux(),
		httpm:     newHTTPMetrics(),
		obs:       newObs(cfg.Logger, cfg.LogSlow),
		start:     time.Now(),
		overrides: make(map[string]string),
		members:   make(map[string]*member, len(backends)),
		stop:      make(chan struct{}),
	}
	g.log = g.obs.log
	g.ring.Add(backends...)
	for _, b := range backends {
		g.members[b] = newMember()
	}
	g.routes()
	every(&g.wg, g.stop, cfg.HealthEvery, func() { g.probeAll("") })
	return g, nil
}

// Close stops the health checker and waits for it.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Backends returns the (sorted) backend membership.
func (g *Gateway) Backends() []string { return g.backendList() }

func (g *Gateway) routes() {
	handle := func(pattern string, fn http.HandlerFunc) { g.httpm.handle(g.mux, g.obs, pattern, fn) }
	handle("GET /v1/healthz", g.handleHealthz)
	handle("GET /v1/metrics", g.handleMetrics)
	handle("GET /v1/ring", g.handleRing)
	handle("POST /v1/ring/join", g.handleRingJoin)
	handle("POST /v1/ring/leave", g.handleRingLeave)
	handle("GET /v1/models", g.handleListModels)
	handle("POST /v1/models", g.handleBroadcastModels)
	handle("DELETE /v1/models/{name}", g.handleDeleteModel)
	handle("POST /v1/assign", g.handleAssign)
	handle("POST /v1/assign/batch", g.handleAssignBatch)
	handle("POST /v1/sessions", g.handleCreateSession)
	handle("DELETE /v1/sessions/{id}", g.handleDeleteSession)
	handle("POST /v1/checkpoint", g.handleCheckpoint)
}

// ---- key derivation ----

// sessionChain returns the first n members of session id's successor chain
// on ring, keyed "s|"+id (fewer when the ring is smaller): its owner, then
// the backends a gateway tries in order when the owner is lost. Every
// session route, failover, ring change, and the replicator's choice of
// replica holder read this one chain, so a session's whole life happens on
// its owner and a replicating owner ships each checkpoint to the gateway's
// next failover candidate.
func sessionChain(ring *hashring.Ring, id string, n int) []string {
	return ring.GetN("s|"+id, n)
}

// statelessKey is the ring hash of one stateless assignment: model plus the
// exact row values. Identical queries always hit the same backend (warming
// that backend's traffic window coherently); the spread across backends
// comes from row diversity. The key is the string "r|<model>|<v1>|<v2>…",
// hashed as it would be written but never built: prefix has consumed
// "r|<model>", and each value's decimal digits are fed from a stack buffer.
func statelessKey(prefix hashring.Hasher, row []int) uint64 {
	var digits [20]byte // the longest int64, "-9223372036854775808"
	h := prefix
	for _, v := range row {
		h = h.AddByte('|').AddBytes(strconv.AppendInt(digits[:0], int64(v), 10))
	}
	return h.Sum()
}

// ---- proxying ----

// do performs one backend JSON request — propagating the caller's
// correlation id when one is given — and returns the response status, body,
// and headers.
func (g *Gateway) do(method, backend, path string, body []byte, reqID string) (status int, data []byte, hdr http.Header, err error) {
	return g.doCT(g.client, method, backend, path, body, "application/json", reqID)
}

func (g *Gateway) doCT(client *http.Client, method, backend, path string, body []byte, ctype, reqID string) (status int, data []byte, hdr http.Header, err error) {
	resp, err := peerCall(client, g.cfg.FleetSecret, method, backend, path, body, ctype, reqID)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	g.noteStatus(backend, resp.StatusCode)
	return resp.StatusCode, data, resp.Header, nil
}

// noteStatus folds a backend verdict into the gateway's per-backend
// counters: a 429 means that backend's admission valve shed the request.
func (g *Gateway) noteStatus(backend string, status int) {
	if status == http.StatusTooManyRequests {
		if m := g.memberOf(backend); m != nil {
			m.sheds.Add(1)
		}
	}
}

// relay writes a backend verdict through unchanged: status, Content-Type,
// Retry-After (the backpressure signal a shed caller must see), and body
// bytes verbatim — so a backend's 429 reaches the caller exactly as if it
// had hit that backend directly.
func relay(w http.ResponseWriter, status int, hdr http.Header, data []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// forward proxies one request to a backend and relays the response verbatim
// — the routed single-backend paths answer byte-identically to hitting that
// backend directly.
func (g *Gateway) forward(w http.ResponseWriter, method, backend, path string, body []byte, ctype, reqID string) {
	status, data, hdr, err := g.doCT(g.client, method, backend, path, body, ctype, reqID)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeBadGateway, "backend %s: %v", backend, err)
		return
	}
	relay(w, status, hdr, data)
}

// reqIDOf reads the request's correlation id. The instrumentation middleware
// has already resolved it (accepted or minted) onto r.Header, so every
// handler forwards the exact id the gateway echoes and logs.
func reqIDOf(r *http.Request) string { return r.Header.Get(requestIDKey) }

// ---- routed endpoints ----

func (g *Gateway) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var req sessionRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return
	}
	// An empty session id routes like any other key; the owning backend's
	// validation rejects it with the same error a direct client would see.
	// When the ring owner is unreachable, the session is born on the next up
	// backend in its chain and an override records the off-ring placement.
	reqID := reqIDOf(r)
	var lastErr error
	for _, b := range g.sessionCandidates(req.Session) {
		if lastErr != nil && !g.isUp(b) {
			continue // skip known-down candidates once the owner has failed
		}
		status, data, hdr, err := g.doRetry(http.MethodPost, b, "/v1/sessions", raw, "application/json", reqID, false)
		if err != nil {
			lastErr = fmt.Errorf("backend %s: %w", b, err)
			if _, transient := classifyTransient(err); transient {
				continue
			}
			break
		}
		if status < http.StatusMultipleChoices && req.Session != "" {
			g.setOverride(req.Session, b)
		}
		relay(w, status, hdr, data)
		return
	}
	writeError(w, http.StatusBadGateway, codeBadGateway, "no backend could create the session: %v", lastErr)
}

func (g *Gateway) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.forwardSession(w, http.MethodDelete, id, "/v1/sessions/"+id, reqIDOf(r))
	g.clearOverride(id)
	// Scrub stray replicas fleet-wide: after failovers and migrations, a copy
	// may be held off the current successor chain. Best-effort.
	for _, b := range g.backendList() {
		if g.isUp(b) {
			_, _, _, _ = g.do(http.MethodDelete, b, "/v1/replica/"+id, nil, "")
		}
	}
}

// ---- broadcast endpoints ----

// broadcast sends the same request through client to every backend at once,
// so the slowest backend (not the sum of all of them) bounds the round, and
// returns the membership snapshot it fanned out over plus the per-backend
// outcomes (aligned by index).
func (g *Gateway) broadcast(client *http.Client, method, path string, body []byte, reqID string) (backends []string, statuses []int, bodies [][]byte, errs []error) {
	backends = g.backendList()
	statuses = make([]int, len(backends))
	bodies = make([][]byte, len(backends))
	errs = make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			statuses[i], bodies[i], _, errs[i] = g.doCT(client, method, b, path, body, "application/json", reqID)
		}(i, b)
	}
	wg.Wait()
	return backends, statuses, bodies, errs
}

// relayBroadcast writes the aggregate outcome of a fleet-wide operation: the
// first backend's response when every backend succeeded, 502 naming the
// failures otherwise. Operations routed through here are idempotent
// (loading a snapshot, deleting a model, checkpointing), so a partial
// failure is safely retried.
func (g *Gateway) relayBroadcast(w http.ResponseWriter, backends []string, statuses []int, bodies [][]byte, errs []error) {
	var failures []string
	for i, b := range backends {
		switch {
		case errs[i] != nil:
			failures = append(failures, fmt.Sprintf("%s: %v", b, errs[i]))
		case statuses[i] >= http.StatusBadRequest:
			failures = append(failures, fmt.Sprintf("%s: status %d: %s", b, statuses[i], strings.TrimSpace(string(bodies[i]))))
		}
	}
	if len(failures) > 0 {
		writeError(w, http.StatusBadGateway, codeBadGateway, "%d/%d backends failed: %s", len(failures), len(backends), strings.Join(failures, "; "))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statuses[0])
	_, _ = w.Write(bodies[0])
}

func (g *Gateway) handleBroadcastModels(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	backends, statuses, bodies, errs := g.broadcast(g.client, http.MethodPost, "/v1/models", raw, reqIDOf(r))
	g.relayBroadcast(w, backends, statuses, bodies, errs)
}

func (g *Gateway) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	backends, statuses, bodies, errs := g.broadcast(g.client, http.MethodDelete, "/v1/models/"+r.PathValue("name"), nil, reqIDOf(r))
	g.relayBroadcast(w, backends, statuses, bodies, errs)
}

func (g *Gateway) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	backends, statuses, bodies, errs := g.broadcast(g.client, http.MethodPost, "/v1/checkpoint", nil, reqIDOf(r))
	g.relayBroadcast(w, backends, statuses, bodies, errs)
}

func (g *Gateway) handleListModels(w http.ResponseWriter, r *http.Request) {
	// Fleet-identical state: any healthy backend answers for all.
	b := g.backendList()[0]
	if up := g.placement().up; len(up) > 0 {
		b = up[0]
	}
	g.forward(w, http.MethodGet, b, "/v1/models", nil, "", reqIDOf(r))
}

// ---- health and metrics ----

// backendHealth is one backend's entry in the gateway's /v1/healthz: its
// probe verdict plus the fields of its own /v1/healthz the gateway reports.
type backendHealth struct {
	Up          bool           `json:"up"`
	Models      map[string]int `json:"models,omitempty"`
	Sessions    int            `json:"sessions"`
	Replication bool           `json:"replication"`
}

// probeAll sends every backend GET /v1/healthz on the short-timeout probe
// client, so a hung backend costs the probe timeout, not the proxy timeout.
// Each verdict lands in the backend's up flag, logging a transition. It
// returns the membership probed and each backend's health, aligned by index.
func (g *Gateway) probeAll(reqID string) (backends []string, health []backendHealth) {
	backends, statuses, bodies, errs := g.broadcast(g.probe, http.MethodGet, "/v1/healthz", nil, reqID)
	health = make([]backendHealth, len(backends))
	for i, b := range backends {
		h := &health[i]
		if h.Up = errs[i] == nil && statuses[i] == http.StatusOK; h.Up {
			_ = json.Unmarshal(bodies[i], h) // a backend's body has no "up" key
		}
		m := g.memberOf(b)
		if m == nil {
			continue // backend left the ring mid-probe
		}
		if was := m.up.Swap(h.Up); was != h.Up {
			if h.Up {
				g.log.Info("backend recovered", "backend", b)
			} else {
				g.log.Warn("backend went down", "backend", b, "status", statuses[i], "err", errs[i])
			}
		}
	}
	return backends, health
}

// handleHealthz distinguishes three fleet states:
//
//   - "ok" (200): every backend answered its health probe.
//   - "degraded" (200): some backend is down, but at least one up backend
//     runs with replication enabled — the down backend's sessions are
//     covered by replica checkpoints and fail over on their next request,
//     so the fleet still serves everything it admitted.
//   - "down" (503): some backend is down and no surviving backend replicates
//     (its sessions are stranded until it returns), or every backend is down.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type gwHealth struct {
		Status        string                   `json:"status"`
		UptimeSeconds float64                  `json:"uptime_seconds"`
		Backends      map[string]backendHealth `json:"backends"`
		Sessions      int                      `json:"sessions"`
	}
	h := gwHealth{Status: "ok", UptimeSeconds: time.Since(g.start).Seconds(), Backends: make(map[string]backendHealth)}
	backends, probed := g.probeAll(reqIDOf(r))
	anyDown, covered := false, false
	for i, b := range backends {
		bh := probed[i]
		h.Backends[b] = bh
		h.Sessions += bh.Sessions
		if !bh.Up {
			anyDown = true
		} else if bh.Replication {
			covered = true
		}
	}
	code := http.StatusOK
	if anyDown {
		if covered {
			h.Status = "degraded"
		} else {
			h.Status = "down"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, h)
}

func (g *Gateway) handleRing(w http.ResponseWriter, r *http.Request) {
	type ringInfo struct {
		Backends  []string        `json:"backends"`
		Up        map[string]bool `json:"up"`
		Overrides int             `json:"overrides"`
		Key       string          `json:"key,omitempty"`
		Session   string          `json:"session,omitempty"`
		Backend   string          `json:"backend,omitempty"`
	}
	backends := g.backendList()
	info := ringInfo{Backends: backends, Up: make(map[string]bool, len(backends))}
	for _, b := range backends {
		info.Up[b] = g.isUp(b)
	}
	g.placeMu.RLock()
	info.Overrides = len(g.overrides)
	g.placeMu.RUnlock()
	// ?session=<id> answers "which backend owns this session" (override
	// included); ?key=<k> places a raw ring key.
	if id := r.URL.Query().Get("session"); id != "" {
		info.Session = id
		info.Backend = g.placeSession(id)
	} else if key := r.URL.Query().Get("key"); key != "" {
		g.placeMu.RLock()
		info.Backend = g.ring.Get(key)
		g.placeMu.RUnlock()
		info.Key = key
	}
	writeJSON(w, http.StatusOK, info)
}

// handleMetrics sums every backend's Prometheus series and appends the
// gateway's own counters, so one scrape sees fleet-wide traffic.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	backends, _, bodies, errs := g.broadcast(g.client, http.MethodGet, "/v1/metrics", nil, reqIDOf(r))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	reachable := make([][]byte, 0, len(bodies))
	sources := make([]string, 0, len(bodies))
	for i := range bodies {
		if errs[i] == nil {
			reachable = append(reachable, bodies[i])
			sources = append(sources, backends[i])
		}
	}
	_, _ = w.Write(aggregateMetrics(reachable, sources))
	members := make([]*member, len(backends))
	for i, b := range backends {
		if members[i] = g.memberOf(b); members[i] == nil {
			members[i] = &member{} // left the ring mid-scrape
		}
	}
	fmt.Fprintf(w, "# HELP mcdcd_gateway_backend_up Last health verdict per backend (1 = up).\n# TYPE mcdcd_gateway_backend_up gauge\n")
	for i, b := range backends {
		v := 0
		if members[i].up.Load() && errs[i] == nil {
			v = 1
		}
		fmt.Fprintf(w, "mcdcd_gateway_backend_up{backend=%q} %d\n", b, v)
	}
	fmt.Fprintf(w, "# HELP mcdcd_gateway_backend_sheds_total Backend 429 responses observed by the gateway, per backend.\n# TYPE mcdcd_gateway_backend_sheds_total counter\n")
	for i, b := range backends {
		fmt.Fprintf(w, "mcdcd_gateway_backend_sheds_total{backend=%q} %d\n", b, members[i].sheds.Load())
	}
	fmt.Fprintf(w, "# HELP mcdcd_gateway_retries_total Transient-failure retries issued by the gateway, per backend.\n# TYPE mcdcd_gateway_retries_total counter\n")
	for i, b := range backends {
		fmt.Fprintf(w, "mcdcd_gateway_retries_total{backend=%q} %d\n", b, members[i].retries.Load())
	}
	fmt.Fprintf(w, "# HELP mcdcd_gateway_failovers_total Sessions promoted onto a replica after their owner became unreachable.\n# TYPE mcdcd_gateway_failovers_total counter\nmcdcd_gateway_failovers_total %d\n", g.failovers.Load())
	g.httpm.write(w, "mcdcd_gateway_http_requests_total", "mcdcd_gateway_http_errors_total", "mcdcd_gateway_http_request_duration_seconds")
	fmt.Fprintf(w, "# HELP mcdcd_gateway_uptime_seconds Gateway uptime.\n# TYPE mcdcd_gateway_uptime_seconds gauge\nmcdcd_gateway_uptime_seconds %g\n", time.Since(g.start).Seconds())
	writeRuntimeMetrics(w, "mcdcd_gateway")
	writeBuildInfo(w, "mcdcd_gateway_build_info")
}

// maxAggregated lists the metric families whose per-backend values describe
// the same fleet-wide fact rather than additive shares of it: every backend
// serves the same snapshot, so its epoch is the fleet's epoch; summing
// uptimes fabricates a number no process ever had; and a fleet on one build
// has one version (N × "1" would read as a broken gauge). These take the max
// across backends; everything else — counters and additive gauges like live
// session counts — sums.
var maxAggregated = map[string]bool{
	"mcdcd_model_epoch":    true,
	"mcdcd_uptime_seconds": true,
	"mcdcd_build_info":     true,
}

// perBackendLabeled lists instantaneous point-in-time gauges whose sum across
// backends answers no operational question (a fleet-wide "queue depth 7"
// hides which backend is drowning). Instead of summing, the aggregator keeps
// each backend's sample as its own series with an injected backend label.
var perBackendLabeled = map[string]bool{
	"mcdcd_queue_depth":      true,
	"mcdcd_inflight":         true,
	"mcdcd_goroutines":       true,
	"mcdcd_heap_alloc_bytes": true,
}

// injectLabel rewrites a series key to carry key=val as its first label.
func injectLabel(series, key, val string) string {
	name, rest := series, ""
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name, rest = series[:i], series[i+1:len(series)-1]
	}
	if rest == "" {
		return fmt.Sprintf("%s{%s=%q}", name, key, val)
	}
	return fmt.Sprintf("%s{%s=%q,%s}", name, key, val, rest)
}

// aggregateMetrics merges Prometheus text expositions series-by-series:
// sample lines with the same name+labels sum (or max, per maxAggregated; or
// split into per-backend series, per perBackendLabeled), HELP/TYPE headers
// are kept once (from the first backend exposing them), and series order
// follows first appearance. Histograms merge bucket-by-bucket — every
// backend emits the identical precomputed `le` ladder (histogram.go), so
// same-labeled _bucket series line up exactly and _sum/_count stay
// consistent with the merged buckets. sources names the backend behind each
// body (aligned by index; used for the per-backend label injection).
func aggregateMetrics(bodies [][]byte, sources []string) []byte {
	type family struct {
		meta []string // HELP/TYPE lines, first exposure wins
	}
	var familyOrder []string
	families := make(map[string]*family)
	var seriesOrder []string
	sums := make(map[string]float64)
	ints := make(map[string]bool)
	seriesFamily := make(map[string]string)

	metricName := func(series string) string {
		if i := strings.IndexByte(series, '{'); i >= 0 {
			return series[:i]
		}
		return series
	}
	for bi, body := range bodies {
		src := ""
		if bi < len(sources) {
			src = sources[bi]
		}
		for _, line := range strings.Split(string(body), "\n") {
			line = strings.TrimRight(line, "\r")
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
					continue
				}
				name := fields[2]
				f, ok := families[name]
				if !ok {
					f = &family{}
					families[name] = f
					familyOrder = append(familyOrder, name)
				}
				if len(f.meta) < 2 { // first backend's HELP+TYPE only
					dup := false
					for _, m := range f.meta {
						if strings.HasPrefix(m, "# "+fields[1]+" ") {
							dup = true
						}
					}
					if !dup {
						f.meta = append(f.meta, line)
					}
				}
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 {
				continue
			}
			series, valStr := line[:sp], line[sp+1:]
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				continue
			}
			if src != "" && perBackendLabeled[metricName(series)] {
				series = injectLabel(series, "backend", src)
			}
			first := false
			if _, ok := sums[series]; !ok {
				first = true
				seriesOrder = append(seriesOrder, series)
				ints[series] = true
				seriesFamily[series] = metricName(series)
			}
			// A series stays integer-formatted only while every
			// contribution is an integer.
			if strings.Contains(valStr, ".") || strings.ContainsAny(valStr, "eE") {
				ints[series] = false
			}
			if maxAggregated[seriesFamily[series]] {
				if first || val > sums[series] {
					sums[series] = val
				}
			} else {
				sums[series] += val
			}
		}
	}
	// A histogram or summary family's samples carry _bucket/_sum/_count
	// suffixes while its HELP/TYPE lines are registered under the base name —
	// resolve through the suffix so the metadata survives aggregation.
	metaFamily := func(fam string) string {
		if _, ok := families[fam]; ok {
			return fam
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); base != fam {
				if _, ok := families[base]; ok {
					return base
				}
			}
		}
		return fam
	}
	// Group the output by family, not by global first-seen order: a series
	// that only a later backend contributed (e.g. its backend-labeled gauge)
	// must still sit inside its family's block — the exposition format
	// requires a family's samples to be contiguous.
	var famOrder []string
	famSeries := make(map[string][]string)
	for _, series := range seriesOrder {
		fam := metaFamily(seriesFamily[series])
		if _, ok := famSeries[fam]; !ok {
			famOrder = append(famOrder, fam)
		}
		famSeries[fam] = append(famSeries[fam], series)
	}
	var out bytes.Buffer
	for _, fam := range famOrder {
		if f, ok := families[fam]; ok {
			for _, m := range f.meta {
				out.WriteString(m)
				out.WriteByte('\n')
			}
		}
		for _, series := range famSeries[fam] {
			if ints[series] {
				fmt.Fprintf(&out, "%s %d\n", series, int64(sums[series]))
			} else {
				fmt.Fprintf(&out, "%s %g\n", series, sums[series])
			}
		}
	}
	return out.Bytes()
}
