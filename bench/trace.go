package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mcdc/client"
)

// Spans are recorded from outside the program, by wrappers around each
// layer's public entry point: the load generator's client calls, the client
// transport (client.WithHTTPClient), the gateway handler, the gateway's
// upstream transport (GatewayConfig.Transport), and every backend's
// Handler(). The X-MCDC-Request-Id the load generator sets links one
// request's spans across layers. A replica ship carries no request id; it is
// linked to the backend span of the same session whose interval contains it.

type spanKind uint8

const (
	spanClient    spanKind = iota // one client package call, timed by the load generator
	spanTransport                 // the client transport's round trip to the gateway
	spanGateway                   // the gateway handler
	spanUpstream                  // one gateway → backend round trip
	spanServer                    // a backend handler
	spanShip                      // a backend handler receiving a replica ship

	// train-paper's staged pass: one job per data set, then its stages.
	spanTrainJob
	spanMGCPL
	spanCAME
	spanBuild
	spanSave
	spanLoad
)

var spanNames = [...]string{"client", "client.transport", "gateway", "gateway.upstream", "server", "replication.ship",
	"train.job", "core.mgcpl", "core.came", "model.build", "model.save", "model.load"}

type span struct {
	kind spanKind
	id   string // X-MCDC-Request-Id
	// at is the backend address of upstream and server spans, and the
	// session of client and ship spans (empty for stateless traffic).
	at         string
	due        int64 // client spans: when the open loop scheduled the request
	start, end int64 // ns since the tracer's epoch, monotonic
	bytes      int64 // ship spans: request body size
}

// tracer keeps spans in a slice preallocated for the phase; recording never
// allocates, and spans past the capacity are counted, not kept.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// isTraced reports whether a request id belongs to the traced half of an
// open loop. The load generator alternates traced and untraced requests so
// both halves see the same system state, which is what makes the tracing
// overhead measurable within one run.
func isTraced(id string) bool { return strings.HasPrefix(id, "t-") }

// tracedTransport times one hop from the request leaving to its response
// headers arriving; reading the body counts toward the caller.
type tracedTransport struct {
	t     *tracer
	kind  spanKind
	inner http.RoundTripper
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get(client.RequestIDHeader)
	if !isTraced(id) {
		return rt.inner.RoundTrip(req)
	}
	start := rt.t.now()
	resp, err := rt.inner.RoundTrip(req)
	rt.t.add(span{kind: rt.kind, id: id, at: req.URL.Host, start: start, end: rt.t.now()})
	return resp, err
}

// tracedHandler times a gateway or backend handler. On a backend it also
// times replica ships, which arrive on the replica route without the
// client's request id.
type tracedHandler struct {
	t     *tracer
	kind  spanKind
	addr  string
	inner http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.kind == spanServer && r.URL.Path == "/v1/replica/checkpoint" {
		start := h.t.now()
		h.inner.ServeHTTP(w, r)
		h.t.add(span{kind: spanShip, id: r.Header.Get(client.RequestIDHeader), at: shipSession(r.URL.RawQuery),
			start: start, end: h.t.now(), bytes: r.ContentLength})
		return
	}
	id := r.Header.Get(client.RequestIDHeader)
	if !isTraced(id) {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.t.now()
	h.inner.ServeHTTP(w, r)
	h.t.add(span{kind: h.kind, id: id, at: h.addr, start: start, end: h.t.now()})
}

// shipSession extracts the session id from a replica ship's query.
func shipSession(rawQuery string) string {
	for _, kv := range strings.Split(rawQuery, "&") {
		if v, ok := strings.CutPrefix(kv, "session="); ok {
			return v
		}
	}
	return ""
}

// interval is a closed span of tracer time.
type interval struct{ start, end int64 }

// unionWithin is how much of [start, end] the children cover, each child
// clipped to the parent and overlaps counted once.
func unionWithin(start, end int64, kids []interval) int64 {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.start, start), min(k.end, end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64 = 0, start
	for _, k := range clipped {
		if k.start > reach {
			reach = k.start
		}
		if k.end > reach {
			covered += k.end - reach
			reach = k.end
		}
	}
	return covered
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(start, end int64, kids []interval) int64 {
	return end - start - unionWithin(start, end, kids)
}

// pathTimes are one traced request's times along its blocking path, in ns.
// At every level the last child to finish is the one the parent waited for,
// and each child counts only inside its parent's window, so with one child
// per level the times add up to the latency exactly.
type pathTimes struct {
	wait         int64 // due → client call start (load-generator queueing)
	latency      int64 // due → client call end
	clientSelf   int64 // client call minus its transport round trips
	transportHop int64 // client round trip minus the gateway handler
	gatewaySelf  int64 // gateway handler minus its upstream round trips
	upstream     int64 // the critical upstream round trip
	upstreamHop  int64 // that round trip minus the backend handler
	serverSelf   int64 // backend handler minus its replica ships
	ship         int64 // replica ships inside the backend handler
	fanout       int   // upstream round trips under the gateway span
}

// linkTrace sets every span's parent (the index of the span that caused it,
// -1 for roots) and derives each fully linked request's path times.
// unlinked counts traced client calls whose chain was incomplete.
func linkTrace(spans []span) (parents []int, paths []pathTimes, unlinked int) {
	parents = make([]int, len(spans))
	byID := make(map[string][]int)
	shipsBySession := make(map[string][]int)
	for i, s := range spans {
		parents[i] = -1
		if s.kind == spanShip {
			shipsBySession[s.at] = append(shipsBySession[s.at], i)
			continue
		}
		byID[s.id] = append(byID[s.id], i)
	}
	window := func(i int) interval { return interval{spans[i].start, spans[i].end} }
	// children returns the spans of kind k among cands that overlap window w
	// of parent p (on p's backend, when match is set), and marks their
	// parent. Overlap, not containment: a round trip ends when the response
	// headers arrive, which can be before the handler sending them returns.
	children := func(cands []int, k spanKind, p int, w interval, match bool) []int {
		var out []int
		for _, i := range cands {
			s := spans[i]
			if s.kind != k || s.end <= w.start || s.start >= w.end || (match && s.at != spans[p].at) {
				continue
			}
			parents[i] = p
			out = append(out, i)
		}
		return out
	}
	// descend returns the self time of window w over its children kids, the
	// critical child, and that child's window clipped to w.
	descend := func(w interval, kids []int) (int64, int, interval) {
		crit := kids[0]
		ivs := make([]interval, len(kids))
		for j, i := range kids {
			ivs[j] = window(i)
			if spans[i].end > spans[crit].end {
				crit = i
			}
		}
		cw := interval{max(spans[crit].start, w.start), min(spans[crit].end, w.end)}
		return selfTime(w.start, w.end, ivs), crit, cw
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		group := byID[id]
		c := -1
		for _, i := range group {
			if spans[i].kind == spanClient {
				c = i
			}
		}
		if c < 0 {
			continue
		}
		p := pathTimes{wait: spans[c].start - spans[c].due, latency: spans[c].end - spans[c].due}
		w := window(c)
		ts := children(group, spanTransport, c, w, false)
		if len(ts) == 0 {
			unlinked++
			continue
		}
		var t, g, u, sv int
		p.clientSelf, t, w = descend(w, ts)
		gs := children(group, spanGateway, t, w, false)
		if len(gs) == 0 {
			unlinked++
			continue
		}
		p.transportHop, g, w = descend(w, gs)
		ups := children(group, spanUpstream, g, w, false)
		if len(ups) == 0 {
			unlinked++
			continue
		}
		p.fanout = len(ups)
		p.gatewaySelf, u, w = descend(w, ups)
		p.upstream = w.end - w.start
		for _, o := range ups {
			if o != u {
				children(group, spanServer, o, window(o), true)
			}
		}
		crit := children(group, spanServer, u, w, true)
		if len(crit) == 0 {
			unlinked++
			continue
		}
		p.upstreamHop, sv, w = descend(w, crit)
		var ships []interval
		if sess := spans[c].at; sess != "" {
			for _, i := range children(shipsBySession[sess], spanShip, sv, w, false) {
				ships = append(ships, window(i))
			}
		}
		p.ship = unionWithin(w.start, w.end, ships)
		p.serverSelf = w.end - w.start - p.ship
		paths = append(paths, p)
	}
	return parents, paths, unlinked
}

// setPathMetrics reports the breakdown of the median traced request: each
// layer's self time on the blocking path is its mean over the requests whose
// latency lies between the 40th and 60th percentile. Means over one set of
// requests add up, so the self times sum to about the traced p50, which
// trace.path_gap_pct checks. It returns the replica-ship time on that path.
func setPathMetrics(res *result, paths []pathTimes) (shipUs float64, err error) {
	if len(paths) == 0 {
		return 0, errors.New("no traced request was linked end to end")
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].latency < paths[j].latency })
	band := paths[len(paths)*2/5 : max(len(paths)*3/5, len(paths)*2/5+1)]
	bandMean := func(get func(pathTimes) int64) float64 {
		sum := 0.0
		for _, p := range band {
			sum += float64(get(p))
		}
		return sum / float64(len(band)) / 1e3
	}
	parts := []struct {
		name string
		get  func(pathTimes) int64
	}{
		{"loadgen.wait_us", func(p pathTimes) int64 { return p.wait }},
		{"client.self_us", func(p pathTimes) int64 { return p.clientSelf }},
		{"client.transport_us", func(p pathTimes) int64 { return p.transportHop }},
		{"gateway.self_us", func(p pathTimes) int64 { return p.gatewaySelf }},
		{"gateway.hop_us", func(p pathTimes) int64 { return p.upstreamHop }},
		{"server.self_us", func(p pathTimes) int64 { return p.serverSelf }},
	}
	shipUs = bandMean(func(p pathTimes) int64 { return p.ship })
	pathSum := shipUs
	for _, part := range parts {
		v := bandMean(part.get)
		pathSum += v
		res.set(part.name, v)
	}
	res.set("gateway.upstream_us", bandMean(func(p pathTimes) int64 { return p.upstream }))
	fan := 0
	for _, p := range paths {
		fan += p.fanout
	}
	res.set("gateway.fanout", float64(fan)/float64(len(paths)))
	tracedP50 := float64(paths[(len(paths)+1)/2-1].latency) / 1e3 // nearest rank
	res.set("trace.path_gap_pct", 100*(pathSum/tracedP50-1))
	return shipUs, nil
}

// traceFile is the JSON layout of <out>/<workload>.trace.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Epoch    time.Time   `json:"epoch"`
	Dropped  int         `json:"dropped"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	At        string `json:"at,omitempty"`
	Due       int64  `json:"due_ns,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Bytes     int64  `json:"bytes,omitempty"`
}

func writeTrace(path, workload string, epoch time.Time, spans []span, parents []int, dropped int) error {
	tf := traceFile{Workload: workload, Epoch: epoch, Dropped: dropped, Spans: make([]traceSpan, len(spans))}
	for i, s := range spans {
		tf.Spans[i] = traceSpan{Name: spanNames[s.kind], RequestID: s.id, At: s.at, Due: s.due,
			Start: s.start, End: s.end, Parent: parents[i], Bytes: s.bytes}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
