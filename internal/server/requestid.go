package server

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the correlation id of one request end to end: the
// gateway mints one (or accepts the client's), forwards it to the backend on
// both the JSON and binary paths, and every response — success, error
// envelope, 429 shed — echoes it back. Grepping a fleet's logs for one id
// reconstructs a single request's path.
const RequestIDHeader = "X-MCDC-Request-Id"

// requestIDKey is RequestIDHeader spelled as http.Header stores it. Getting
// or setting the header under it skips the canonical-key conversion, which
// allocates for any other spelling.
var requestIDKey = http.CanonicalHeaderKey(RequestIDHeader)

// idGen mints request ids: a per-process random prefix plus a sequence
// number. Collision-safe across a fleet without coordination, and cheap —
// one atomic increment and one small string per minted id.
type idGen struct {
	prefix string
	seq    atomic.Uint64
}

func newIDGen() *idGen {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degraded randomness still must not collide across a fleet started
		// at different instants.
		binary.LittleEndian.PutUint32(b[:4], uint32(time.Now().UnixNano()))
	}
	return &idGen{prefix: hex.EncodeToString(b[:])}
}

func (g *idGen) next() string {
	return g.prefix + "-" + strconv.FormatUint(g.seq.Add(1), 10)
}

// validRequestID accepts a caller-supplied correlation id: non-empty,
// bounded, printable ASCII with no spaces — safe to echo into headers and
// log lines.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// ensureRequestID returns the request's correlation id, minting one when the
// caller sent none (or an invalid one). The id is written back onto
// r.Header, so a proxying handler forwards exactly the id it logs.
func ensureRequestID(r *http.Request, ids *idGen) string {
	if id := r.Header.Get(requestIDKey); validRequestID(id) {
		return id
	}
	id := ids.next()
	r.Header.Set(requestIDKey, id)
	return id
}

// discardLogger is the default when no Logger is configured (library
// embedders, most tests): structured calls are level-checked and dropped.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// obs bundles the per-request observability dependencies the HTTP middleware
// needs: the id minter, the structured logger, and the slow-request
// threshold.
type obs struct {
	ids  *idGen
	log  *slog.Logger
	slow time.Duration
}

func newObs(log *slog.Logger, slow time.Duration) *obs {
	if log == nil {
		log = discardLogger
	}
	return &obs{ids: newIDGen(), log: log, slow: slow}
}

// logRequest emits the request-scoped log line: every request at Debug,
// requests over the slow threshold at Warn. The Enabled check keeps the
// common case (Info level, fast request) free of attribute allocation.
func (o *obs) logRequest(ctx context.Context, id, endpoint string, status int, code string, d time.Duration) {
	slow := o.slow > 0 && d >= o.slow
	if !slow && !o.log.Enabled(ctx, slog.LevelDebug) {
		return
	}
	attrs := []any{
		"request_id", id,
		"endpoint", endpoint,
		"status", status,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if code != "" {
		attrs = append(attrs, "code", code)
	}
	if slow {
		o.log.WarnContext(ctx, "slow request", attrs...)
		return
	}
	o.log.DebugContext(ctx, "request", attrs...)
}
