package server

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"

	"mcdc/internal/hashring"
	"mcdc/internal/model"
)

// Assignment routing. The gateway's four assign shapes — a JSON single, a
// JSON batch, a binary frame stream, a binary batch — run through one
// pipeline:
//
//  1. The edge (edge.go, which the daemon's handlers call too) decodes the
//     client's body, and the handler turns it into a job of routed items, one
//     per assignment: a session item (placed by placeSession) or a stateless
//     item (placed by its model+row ring hash, statelessKey). A frame body is
//     split in place: each 'A' item keeps its payload as a slice of the body,
//     to be forwarded as is. An item the gateway can answer itself — an
//     undecodable frame, a request naming no target — gets the exact error a
//     backend would have given.
//  2. The router groups the pending items by backend and delivers each group
//     as a binary frame sub-stream, whatever codec the client spoke: 'A'
//     frames for singles; for a batch, the stream model.AppendBatchFrames
//     writes.
//     Retry, failover and the fleet probe live there, once.
//  3. The edge encodes the merged answers back in the client's codec. The
//     frame codec is deterministic and carries floats bit-exactly, so either
//     codec's answer is byte-identical to a solo backend's.

// routedItem is one assignment on its way through the gateway.
type routedItem struct {
	session string // owning session; "" for a stateless item
	key     uint64 // a stateless item's ring hash (statelessKey)
	row     []int  // a batch row
	payload []byte // the 'A' frame payload (singles)

	done  bool
	reply model.Frame      // singles: the 'a' result or '!' error frame
	asg   model.Assignment // batches: the row's assignment
	epoch int              // batches: the epoch of the backend that served the row
}

// assignJob is one client request, decoded at the edge.
type assignJob struct {
	reqID string
	batch bool   // the items are rows of one batch against model
	model string // batches only
	items []routedItem
	err   string // why a batch failed: batches have no per-item errors
}

// singleItem decodes one 'A' payload into an item, using req as scratch. What
// needs no backend — an undecodable payload, or one naming neither a model
// nor a session — is answered here with the backend's own error text.
func singleItem(payload []byte, req *model.AssignRequest) routedItem {
	err := req.Decode(payload)
	switch {
	case err != nil:
		return routedItem{done: true, reply: errorFrame(codeBadRequest, err.Error())}
	case len(req.Session) > 0:
		return routedItem{session: string(req.Session), payload: payload}
	case len(req.Model) > 0:
		prefix := hashring.NewHasher().AddString("r|").AddBytes(req.Model)
		return routedItem{key: statelessKey(prefix, req.Row), payload: payload}
	}
	return routedItem{done: true, reply: errorFrame(codeBadRequest, "request names neither a model nor a session")}
}

// fail answers item i with an in-band bad_gateway error. A batch has no
// per-item errors, so there the first failure fails the whole request.
func (job *assignJob) fail(i int, msg string) {
	if job.batch {
		if job.err == "" {
			job.err = msg
		}
		return
	}
	job.items[i] = routedItem{done: true, reply: errorFrame(codeBadGateway, msg)}
}

// ---- handlers ----

// handleAssign serves POST /v1/assign: the edge decodes the body into 'A'
// payloads, the router answers each, and the edge encodes the answers in
// the client's codec.
func (g *Gateway) handleAssign(w http.ResponseWriter, r *http.Request) {
	var single [1]model.Frame // a JSON body's one frame
	frames, wire, ok := readAssign(w, r, single[:0])
	if !ok {
		return
	}
	job := &assignJob{reqID: reqIDOf(r), items: make([]routedItem, len(frames))}
	var scratch model.AssignRequest
	for i, f := range frames {
		job.items[i] = singleItem(f.Payload, &scratch)
	}
	if !g.route(w, job) {
		return
	}
	var out bytes.Buffer
	_ = model.WriteWireHeader(&out)
	for _, it := range job.items {
		appendReply(&out, it.reply)
	}
	writeAssignReply(w, wire, out.Bytes())
}

// handleAssignBatch serves POST /v1/assign/batch: the edge decodes the body
// into rows, the router scatters them by row key, and the edge encodes the
// gathered answers in the client's codec.
func (g *Gateway) handleAssignBatch(w http.ResponseWriter, r *http.Request) {
	in, ok := readAssignBatch(w, r)
	if !ok {
		return
	}
	job := &assignJob{reqID: reqIDOf(r), batch: true, model: in.model, items: make([]routedItem, 0, in.rows)}
	prefix := hashring.NewHasher().AddString("r|").AddString(in.model)
	for _, chunk := range in.chunks {
		for _, row := range chunk {
			job.items = append(job.items, routedItem{key: statelessKey(prefix, row), row: row})
		}
	}
	if in.rows == 0 {
		// A backend judges the model before it finds the batch empty, so
		// one of them answers: unknown_model or "empty batch".
		_, body := job.subStream(nil)
		g.forward(w, http.MethodPost, g.backendList()[0], "/v1/assign/batch", body, WireContentType, job.reqID)
		return
	}
	if !g.route(w, job) {
		return
	}
	asgs := make([]model.Assignment, len(job.items))
	for i, it := range job.items {
		asgs[i] = it.asg
	}
	writeBatchReply(w, &in, asgs, func(i int) int { return job.items[i].epoch })
}

// ---- the router ----

// route delivers every pending item of job in rounds, at most one more than
// there are backends. Each round groups the pending items by backend and
// delivers the groups concurrently; what a round could not finish is
// re-placed for the next. It returns false when it has already answered the
// request: a backend's non-200 verdict relayed verbatim (the first failing
// backend in sorted order wins, so the precedence is deterministic), or a 502.
func (g *Gateway) route(w http.ResponseWriter, job *assignJob) bool {
	var pending []int
	for i := range job.items {
		if !job.items[i].done {
			pending = append(pending, i)
		}
	}
	probed := make(map[string]string) // session → owner the fleet probe found
	var lastErr error
	maxRounds := len(g.backendList()) + 1
	for round := 0; len(pending) > 0 && job.err == ""; round++ {
		if round == maxRounds {
			for _, i := range pending {
				job.fail(i, fmt.Sprintf("no backend could serve the request: %v", lastErr))
			}
			break
		}
		p := g.placement()
		// An item finds its group by scanning the round's groups, one per
		// backend in use, so grouping costs at most items × backends
		// comparisons.
		var groups []group
		for _, i := range pending {
			b := g.place(p, &job.items[i])
			k := slices.IndexFunc(groups, func(gr group) bool { return gr.backend == b })
			if k < 0 {
				k = len(groups)
				groups = append(groups, group{backend: b})
			}
			groups[k].idxs = append(groups[k].idxs, i)
		}
		slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.backend, b.backend) })
		results := make([]exchange, len(groups))
		var wg sync.WaitGroup
		for k, gr := range groups {
			wg.Add(1)
			go func(k int, gr group) {
				defer wg.Done()
				results[k] = g.deliver(job, gr.backend, gr.idxs)
			}(k, gr)
		}
		wg.Wait()

		pending = nil
		for k, gr := range groups {
			res := &results[k]
			switch {
			case res.err != nil:
				if _, transient := classifyTransient(res.err); !transient {
					writeError(w, http.StatusBadGateway, codeBadGateway, "backend %s: %v", res.backend, res.err)
					return false
				}
				lastErr = fmt.Errorf("backend %s: %w", res.backend, res.err)
				pending = append(pending, g.replace(job, res.backend, gr.idxs)...)
			case res.status != http.StatusOK:
				relay(w, res.status, res.hdr, res.data)
				return false
			default:
				pending = append(pending, g.settle(job, res, gr.idxs, probed)...)
			}
		}
		sort.Ints(pending)
	}
	if job.err != "" {
		writeError(w, http.StatusBadGateway, codeBadGateway, "batch could not complete: %s", job.err)
		return false
	}
	return true
}

// group is the pending items one round sends one backend.
type group struct {
	backend string
	idxs    []int
}

// place returns the backend an item routes to in the round placing against p.
func (g *Gateway) place(p placement, it *routedItem) string {
	if it.session != "" {
		return g.placeSession(it.session)
	}
	return p.stateless(it.key)
}

// sessionCounts counts the items each session owns among idxs (nil when no
// session item is among them).
func sessionCounts(job *assignJob, idxs []int) map[string]int {
	var counts map[string]int
	for _, i := range idxs {
		if s := job.items[i].session; s != "" {
			if counts == nil {
				counts = make(map[string]int)
			}
			counts[s]++
		}
	}
	return counts
}

// replace re-places the items of a group whose exchange with failed broke
// off in transit (failed is marked down by then), returning those to send
// again. A stateless item moves to the next up backend in its ring chain. A
// session's lone item fails over to a promoted replica and is re-sent under
// the same request id: the backend numbers each session's frames within the
// stream, so the redelivered frame id matches and the replay cache absorbs
// an ambiguous first delivery. A session with several items in the group
// cannot be re-sent anywhere — the backend applies the frames one after
// another, so an unknown prefix may have applied, and the one-deep replay
// cache covers only the last frame — so its items answer bad_gateway.
func (g *Gateway) replace(job *assignJob, failed string, idxs []int) (again []int) {
	counts := sessionCounts(job, idxs)
	p := g.placement()
	for _, i := range idxs {
		it := &job.items[i]
		switch {
		case it.session == "":
			if !p.isUp(p.stateless(it.key)) {
				job.fail(i, fmt.Sprintf("backend %s unreachable and no other backend is up", failed))
				continue
			}
		case counts[it.session] > 1:
			job.fail(i, fmt.Sprintf("backend %s failed mid-stream with multiple frames for session %q in flight; resend", failed, it.session))
			continue
		default:
			if _, ok := g.failoverSession(it.session, job.reqID, failed); !ok {
				job.fail(i, fmt.Sprintf("session %q: owner %s unreachable and no replica could be promoted", it.session, failed))
				continue
			}
		}
		again = append(again, i)
	}
	return again
}

// settle records a group's answers and returns the items to send again: a
// session item the backend answered unknown_session for, once the fleet
// probe has found where the session really lives (after a gateway restart
// lost its placement overrides). Each session is probed for at most once.
func (g *Gateway) settle(job *assignJob, res *exchange, idxs []int, probed map[string]string) (again []int) {
	for j, i := range idxs {
		it := &job.items[i]
		if job.batch {
			it.asg, it.epoch, it.done = res.asgs[j], res.epoch, true
			continue
		}
		f := res.frames[j]
		if it.session != "" && f.Kind == model.FrameError {
			if code, _, _ := model.DecodeError(f.Payload); code == codeUnknownSession {
				owner, seen := probed[it.session]
				if !seen {
					owner, _ = g.probeSessionOwner(it.session, res.backend)
					probed[it.session] = owner
				}
				if owner != "" && owner != res.backend {
					again = append(again, i)
					continue
				}
			}
		}
		it.reply, it.done = f, true
	}
	return again
}

// exchange is one group's round trip to a backend.
type exchange struct {
	backend string
	status  int
	data    []byte
	hdr     http.Header
	err     error
	frames  []model.Frame      // singles: one answer per item, aliasing data
	epoch   int                // batches: the serving backend's epoch
	asgs    []model.Assignment // batches: one assignment per item
}

// deliver sends the items idxs to backend b as one frame sub-stream and
// parses the answer. A transport failure is retried in place, except for a
// group holding several items of one session, which gets a single attempt
// (see replace).
func (g *Gateway) deliver(job *assignJob, b string, idxs []int) exchange {
	path, body := job.subStream(idxs)
	res := exchange{backend: b}
	multi := false
	for _, n := range sessionCounts(job, idxs) {
		multi = multi || n > 1
	}
	res.status, res.data, res.hdr, res.err = g.doRetry(http.MethodPost, b, path, body, WireContentType, job.reqID, multi)
	if res.err != nil || res.status != http.StatusOK {
		return res
	}
	if job.batch {
		if res.epoch, res.asgs, res.err = model.DecodeBatchReplyFrames(res.data); res.err == nil && len(res.asgs) != len(idxs) {
			res.err = fmt.Errorf("%d results for %d rows", len(res.asgs), len(idxs))
		}
	} else if res.frames, res.err = model.SplitFrames(res.data, make([]model.Frame, 0, len(idxs))); res.err == nil && len(res.frames) != len(idxs) {
		res.err = fmt.Errorf("%d response frames for %d assigns", len(res.frames), len(idxs))
	}
	return res
}

// subStream encodes the items idxs as the upstream frame stream: 'A' frames
// for singles, model.AppendBatchFrames for a batch's rows.
func (job *assignJob) subStream(idxs []int) (path string, body []byte) {
	if job.batch {
		rows := make([][]int, len(idxs))
		for k, i := range idxs {
			rows[k] = job.items[i].row
		}
		return "/v1/assign/batch", model.AppendBatchFrames(nil, job.model, rows)
	}
	var buf bytes.Buffer
	_ = model.WriteWireHeader(&buf)
	for _, i := range idxs {
		_ = model.WriteFrame(&buf, model.FrameAssign, job.items[i].payload)
	}
	return "/v1/assign", buf.Bytes()
}
