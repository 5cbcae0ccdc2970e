package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mcdc/internal/hashring"
)

// Gateway fault tolerance. Three layers turn backend loss and ring changes
// into non-events for clients:
//
//  1. Retry with capped exponential backoff: a transiently failed backend
//     request (connection refused/reset, timeout, severed connection) is
//     retried in place; application errors are relayed verbatim, never
//     retried.
//  2. Failover: when a session's owner stays unreachable, the gateway walks
//     the session's ring-successor chain promoting the first backend that
//     holds a replica checkpoint (bumping the ownership epoch, which fences
//     the zombie primary), records a placement override, and redelivers the
//     request — with the same request id, so the backend's replay cache
//     absorbs an ambiguous first delivery. Stateless traffic just reroutes
//     to the next up backend in the chain. For assignments these steps run
//     in the router of gateway_assign.go, whatever codec the client spoke.
//  3. Live membership: POST /v1/ring/{join,leave} migrate moving sessions'
//     checkpoints under the exclusive placement lock, then cut the ring
//     over — no request ever places against a half-updated ring.
//
// Lock order is placeMu → stateMu, and network calls never happen under
// stateMu — so counters stay readable (noteStatus) from inside a membership
// change that holds placeMu exclusively.

// ---- per-backend state ----

// member is the gateway's record of one backend, kept while it is a ring
// member: its health verdict and the counters /v1/metrics reports for it.
type member struct {
	up      atomic.Bool  // health verdict
	sheds   atomic.Int64 // 429s observed (admission sheds)
	retries atomic.Int64 // transient-failure retries
}

// newMember is the record of a backend entering the ring: up until shown down.
func newMember() *member {
	m := &member{}
	m.up.Store(true)
	return m
}

// memberOf returns backend b's record, nil once b has left the ring.
func (g *Gateway) memberOf(b string) *member {
	g.stateMu.RLock()
	defer g.stateMu.RUnlock()
	return g.members[b]
}

// backendList snapshots the membership for lock-free iteration.
func (g *Gateway) backendList() []string {
	g.placeMu.RLock()
	defer g.placeMu.RUnlock()
	return append([]string(nil), g.backends...)
}

func (g *Gateway) isUp(b string) bool {
	m := g.memberOf(b)
	return m != nil && m.up.Load()
}

// markDown records a passively detected failure (a transient transport error
// on live traffic) so placement stops preferring the backend before the next
// health-probe tick.
func (g *Gateway) markDown(b string) {
	if m := g.memberOf(b); m != nil && m.up.Swap(false) {
		g.log.Warn("backend marked down on transport failure", "backend", b)
	}
}

// ---- placement ----

// placeSession returns the backend that owns a session: a recorded override
// (failover or migration placement) wins over the ring.
func (g *Gateway) placeSession(id string) string {
	g.placeMu.RLock()
	defer g.placeMu.RUnlock()
	return g.placeLocked(id)
}

// placeLocked is placeSession with placeMu already held.
func (g *Gateway) placeLocked(id string) string {
	if b, ok := g.overrides[id]; ok {
		return b
	}
	return sessionChain(g.ring, id, 1)[0]
}

// placement is the view one routing round places stateless items against:
// the ring as the round began and the backends then marked up. A published
// ring is never mutated — join and leave build a new one and swap it in —
// so a round walks it without holding placeMu, and reads the up flags once
// instead of once per item.
type placement struct {
	ring *hashring.Ring
	up   []string
}

// placement takes a routing round's snapshot.
func (g *Gateway) placement() placement {
	g.placeMu.RLock()
	defer g.placeMu.RUnlock()
	p := placement{ring: g.ring, up: make([]string, 0, len(g.backends))}
	g.stateMu.RLock()
	defer g.stateMu.RUnlock()
	for _, b := range g.backends {
		if m := g.members[b]; m != nil && m.up.Load() {
			p.up = append(p.up, b)
		}
	}
	return p
}

func (p placement) isUp(b string) bool { return slices.Contains(p.up, b) }

// stateless returns the first up backend in the successor chain of ring
// hash key. With the whole fleet up this is exactly the ring owner — the
// deterministic placement the byte-identity contract pins — and with owners
// down, stateless traffic (which any backend can serve) slides along the
// chain instead of failing. With nothing up it is the owner, so the request
// fails honestly.
func (p placement) stateless(key uint64) (b string) {
	p.ring.Walk(key, func(node string) bool {
		up := p.isUp(node)
		if up || b == "" {
			b = node
		}
		return !up
	})
	return b
}

// sessionCandidates returns the session's full ring-successor chain — the
// failover search order.
func (g *Gateway) sessionCandidates(id string) []string {
	g.placeMu.RLock()
	defer g.placeMu.RUnlock()
	return sessionChain(g.ring, id, g.ring.Len())
}

func (g *Gateway) setOverride(id, backend string) {
	g.placeMu.Lock()
	defer g.placeMu.Unlock()
	g.placeOnLocked(g.ring, id, backend)
}

// placeOnLocked records that session id lives on backend b, as seen against
// ring: an override, unless ring places id on b anyway. placeMu held
// exclusively.
func (g *Gateway) placeOnLocked(ring *hashring.Ring, id, b string) {
	if sessionChain(ring, id, 1)[0] == b {
		delete(g.overrides, id) // on ring placement; no override needed
		return
	}
	g.overrides[id] = b
}

func (g *Gateway) clearOverride(id string) {
	g.placeMu.Lock()
	defer g.placeMu.Unlock()
	delete(g.overrides, id)
}

// ---- transient-error classification and retry ----

// classifyTransient sorts a backend request error into retryable transport
// failures (the backend or network died; the request may not have been
// processed) vs everything else (caller cancellation, malformed requests) —
// only the former justify retry and failover.
func classifyTransient(err error) (kind string, transient bool) {
	switch {
	case err == nil:
		return "", false
	case errors.Is(err, context.Canceled):
		return "canceled", false
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused", true
	case errors.Is(err, syscall.ECONNRESET):
		return "reset", true
	case errors.Is(err, syscall.EPIPE):
		return "pipe", true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout", true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return "eof", true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return "net:" + oe.Op, true
	}
	// The HTTP transport wraps some mid-body failures in plain error strings;
	// a severed connection is transient by nature.
	if s := err.Error(); strings.Contains(s, "connection reset") || strings.Contains(s, "broken pipe") ||
		strings.Contains(s, "server closed") || strings.Contains(s, "transport connection broken") ||
		strings.Contains(s, "EOF") {
		return "severed", true
	}
	return "other", false
}

const (
	defaultRetries      = 2
	defaultRetryBackoff = 25 * time.Millisecond
	maxRetryBackoff     = time.Second
)

func (g *Gateway) retryBudget() (attempts int, backoff time.Duration) {
	switch {
	case g.cfg.Retries < 0:
		attempts = 1
	case g.cfg.Retries == 0:
		attempts = 1 + defaultRetries
	default:
		attempts = 1 + g.cfg.Retries
	}
	backoff = g.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	return attempts, backoff
}

// doRetry is doCT plus the transient-failure retry loop: capped exponential
// backoff against the same backend, counting mcdcd_gateway_retries_total per
// re-attempt. A call made once, or to a backend already marked down, gets a
// single attempt, so a dead owner costs its sessions no retry budget before
// failover. It returns the last error once the attempts are spent (marking
// the backend down) or immediately on a non-transient failure.
func (g *Gateway) doRetry(method, backend, path string, body []byte, ctype, reqID string, once bool) (status int, data []byte, hdr http.Header, err error) {
	attempts, backoff := g.retryBudget()
	if once || !g.isUp(backend) {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if m := g.memberOf(backend); m != nil {
				m.retries.Add(1)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
		status, data, hdr, err = g.doCT(g.client, method, backend, path, body, ctype, reqID)
		if err == nil {
			return status, data, hdr, nil
		}
		kind, transient := classifyTransient(err)
		if !transient {
			return 0, nil, nil, err
		}
		g.log.Warn("transient backend failure", "backend", backend, "path", path, "kind", kind, "attempt", i+1, "err", err)
	}
	g.markDown(backend)
	return 0, nil, nil, err
}

// ---- session failover ----

// failoverSession walks the session's ring-successor chain promoting the
// first backend that holds a replica of the session. On success the
// placement override is recorded and the new owner returned. failed is the
// backend that just proved unreachable and is skipped.
func (g *Gateway) failoverSession(id, reqID, failed string) (string, bool) {
	for _, b := range g.sessionCandidates(id) {
		if b == failed {
			continue
		}
		status, data, _, err := g.do(http.MethodPost, b, "/v1/sessions/"+id+"/promote", nil, reqID)
		if err != nil {
			if _, transient := classifyTransient(err); transient {
				g.markDown(b)
			}
			continue
		}
		switch status {
		case http.StatusOK:
			g.setOverride(id, b)
			g.failovers.Add(1)
			g.log.Warn("session failed over", "session", id, "from", failed, "to", b)
			return b, true
		case http.StatusNotFound:
			continue // no replica held there; keep walking the chain
		default:
			g.log.Warn("promote refused", "session", id, "backend", b, "status", status, "body", strings.TrimSpace(string(data)))
		}
	}
	return "", false
}

// probeSessionOwner finds which up backend actually holds a session the
// placed backend answered unknown_session for — the recovery path after a
// gateway restart lost its overrides (placement knowledge outlives the
// gateway in the backends themselves).
func (g *Gateway) probeSessionOwner(id, placed string) (string, bool) {
	for _, b := range g.backendList() {
		if b == placed || !g.isUp(b) {
			continue
		}
		if slices.Contains(g.inventory(b).Sessions, id) {
			g.setOverride(id, b)
			g.log.Info("relocated session by fleet probe", "session", id, "backend", b)
			return b, true
		}
	}
	return "", false
}

// inventory reads backend b's GET /v1/sessions: the sessions it owns and the
// replicas it holds, or neither when b does not answer it.
func (g *Gateway) inventory(b string) (inv sessionInventory) {
	status, data, _, err := g.do(http.MethodGet, b, "/v1/sessions", nil, "")
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &inv) != nil {
		return sessionInventory{}
	}
	return inv
}

// bodyHasCode reports whether an error envelope names the stable code.
func bodyHasCode(data []byte, code string) bool {
	return strings.Contains(string(data), `"`+code+`"`)
}

// forwardSession delivers a session-routed request other than an assignment
// (assignments take the router in gateway_assign.go) with the same recovery
// ladder: retry in place, then failover to a promoted replica, then a fleet
// probe for a relocated session.
func (g *Gateway) forwardSession(w http.ResponseWriter, method, id, path, reqID string) {
	backend := g.placeSession(id)
	status, data, hdr, err := g.doRetry(method, backend, path, nil, "", reqID, false)
	if err != nil {
		if _, transient := classifyTransient(err); transient {
			if next, ok := g.failoverSession(id, reqID, backend); ok {
				status, data, hdr, err = g.doRetry(method, next, path, nil, "", reqID, false)
			}
		}
		if err != nil {
			writeError(w, http.StatusBadGateway, codeBadGateway, "backend %s: %v", backend, err)
			return
		}
		relay(w, status, hdr, data)
		return
	}
	if status == http.StatusNotFound && bodyHasCode(data, codeUnknownSession) {
		// The placed backend does not know the session. It may live elsewhere
		// under an override this gateway no longer remembers; ask the fleet.
		if owner, ok := g.probeSessionOwner(id, backend); ok {
			if s2, d2, h2, err2 := g.doRetry(method, owner, path, nil, "", reqID, false); err2 == nil {
				relay(w, s2, h2, d2)
				return
			}
		}
	}
	relay(w, status, hdr, data)
}

// ---- ring membership ----

type ringChangeRequest struct {
	Backend string `json:"backend"`
}

// handleRingJoin adds a backend to the ring: sessions whose placement moves
// onto the new backend are migrated (checkpoint fetched from the current
// holder, adopted by the joiner, deleted at the source), then the ring cuts
// over atomically under the exclusive placement lock.
func (g *Gateway) handleRingJoin(w http.ResponseWriter, r *http.Request) {
	var req ringChangeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	b := strings.TrimSpace(req.Backend)
	if b == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "join needs a backend address")
		return
	}
	g.placeMu.Lock()
	defer g.placeMu.Unlock()
	if slices.Contains(g.backends, b) {
		writeError(w, http.StatusConflict, codeConflict, "backend %s is already a ring member", b)
		return
	}
	next := hashring.New(hashring.DefaultReplicas)
	next.Add(g.backends...)
	next.Add(b)
	moved, err := g.migrateSessionsLocked(next, func(id string) (from, to string, migrate bool) {
		from = g.placeLocked(id)
		to = sessionChain(next, id, 1)[0]
		return from, to, to == b && from != b
	})
	if err != nil {
		writeError(w, http.StatusBadGateway, codeBadGateway, "join migration: %v", err)
		return
	}
	g.cutOverLocked(w, next, b, moved)
}

// handleRingLeave removes a backend. A live leaver's sessions are migrated
// to their new owners first (drain); a dead leaver's sessions are promoted
// from their replicas wherever those are held. Then the ring cuts over and
// the remaining fleet's membership view is refreshed.
func (g *Gateway) handleRingLeave(w http.ResponseWriter, r *http.Request) {
	var req ringChangeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	b := strings.TrimSpace(req.Backend)
	g.placeMu.Lock()
	defer g.placeMu.Unlock()
	if !slices.Contains(g.backends, b) {
		writeError(w, http.StatusNotFound, codeBadRequest, "backend %s is not a ring member", b)
		return
	}
	if len(g.backends) == 1 {
		writeError(w, http.StatusConflict, codeConflict, "cannot remove the last backend")
		return
	}
	next := hashring.New(hashring.DefaultReplicas)
	next.Add(g.backends...)
	next.Remove(b)
	var moved []string
	var err error
	if g.isUp(b) {
		moved, err = g.migrateSessionsLocked(next, func(id string) (from, to string, migrate bool) {
			from = g.placeLocked(id)
			return from, sessionChain(next, id, 1)[0], from == b
		})
	} else {
		moved, err = g.promoteOrphansLocked(b, next)
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, codeBadGateway, "leave migration: %v", err)
		return
	}
	for id, ob := range g.overrides {
		if ob == b {
			delete(g.overrides, id) // migrated/promoted above; fall back to ring
		}
	}
	g.cutOverLocked(w, next, b, moved)
}

// cutOverLocked makes next, the ring after b joined or left, the placement:
// b's member record is added or dropped, every up backend learns the new
// membership, and the join or leave is answered. placeMu held exclusively.
func (g *Gateway) cutOverLocked(w http.ResponseWriter, next *hashring.Ring, b string, moved []string) {
	msg := "backend left ring"
	g.stateMu.Lock()
	if next.Len() > len(g.backends) {
		g.members[b], msg = newMember(), "backend joined ring"
	} else {
		delete(g.members, b)
	}
	g.stateMu.Unlock()
	g.ring, g.backends = next, next.Nodes()
	g.broadcastFleetLocked()
	g.log.Info(msg, "backend", b, "sessions_migrated", len(moved))
	writeJSON(w, http.StatusOK, map[string]any{"backend": b, "migrated": moved, "members": g.backends})
}

// migrateSessionsLocked enumerates every resident session fleet-wide and
// moves those the plan selects: fetch the current checkpoint from the
// holder, adopt on the target (which bumps the ownership epoch, fencing the
// source), delete at the source, and record the new placement against the
// next ring. placeMu is held exclusively, so no request places against the
// old ring once the migration starts. Delivery is not paused, though: the
// router holds placeMu only while it places, so a session frame placed just
// before may still reach the source and apply there after its checkpoint was
// fetched. The source copy is then deleted with that assignment in it, and
// the session's stream forks without an error.
func (g *Gateway) migrateSessionsLocked(next *hashring.Ring, plan func(id string) (from, to string, migrate bool)) ([]string, error) {
	moved := []string{}
	for _, holder := range g.backends {
		if !g.isUp(holder) {
			continue
		}
		for _, id := range g.inventory(holder).Sessions {
			from, to, migrate := plan(id)
			if !migrate || from != holder || to == "" || to == from {
				continue
			}
			st, ckpt, _, err := g.do(http.MethodGet, from, "/v1/sessions/"+id+"/checkpoint", nil, "")
			if err != nil || st != http.StatusOK {
				return moved, fmt.Errorf("fetch checkpoint of %q from %s: status %d err %v", id, from, st, err)
			}
			st, body, _, err := g.doCT(g.client, http.MethodPost, to, "/v1/sessions/"+id+"/adopt", ckpt, "application/octet-stream", "")
			if err != nil || st != http.StatusOK {
				return moved, fmt.Errorf("adopt %q on %s: status %d err %v: %s", id, to, st, err, strings.TrimSpace(string(body)))
			}
			// The source's copy is now fenced (adopt bumped the epoch); delete
			// it so it cannot shadow the move. Best-effort.
			if st, _, _, err := g.do(http.MethodDelete, from, "/v1/sessions/"+id, nil, ""); err != nil || st >= 300 {
				g.log.Warn("source session delete failed after migration", "session", id, "backend", from, "status", st, "err", err)
			}
			g.placeOnLocked(next, id, to)
			moved = append(moved, id)
		}
	}
	return moved, nil
}

// promoteOrphansLocked recovers a dead backend's sessions during leave:
// every replica held anywhere whose owner (under the outgoing placement)
// was the dead backend is promoted where it lies. placeMu held exclusively.
func (g *Gateway) promoteOrphansLocked(dead string, next *hashring.Ring) ([]string, error) {
	moved := []string{}
	for _, holder := range g.backends {
		if holder == dead || !g.isUp(holder) {
			continue
		}
		for _, id := range g.inventory(holder).Replicas {
			if g.placeLocked(id) != dead {
				continue
			}
			st, body, _, err := g.do(http.MethodPost, holder, "/v1/sessions/"+id+"/promote", nil, "")
			if err != nil || st != http.StatusOK {
				return moved, fmt.Errorf("promote %q on %s: status %d err %v: %s", id, holder, st, err, strings.TrimSpace(string(body)))
			}
			g.placeOnLocked(next, id, holder)
			g.failovers.Add(1)
			moved = append(moved, id)
		}
	}
	return moved, nil
}

// broadcastFleetLocked pushes the new membership to every up backend so
// replica shipping re-aims at the new successors. placeMu held.
func (g *Gateway) broadcastFleetLocked() {
	body, _ := json.Marshal(map[string][]string{"peers": g.backends})
	for _, b := range g.backends {
		if !g.isUp(b) {
			continue
		}
		if st, data, _, err := g.do(http.MethodPost, b, "/v1/fleet", body, ""); err != nil || st >= 300 {
			g.log.Warn("fleet membership push failed", "backend", b, "status", st, "err", err, "body", strings.TrimSpace(string(data)))
		}
	}
}
