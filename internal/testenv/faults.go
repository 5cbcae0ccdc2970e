package testenv

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection for chaos tests. FaultRoundTripper wraps an HTTP transport
// and applies per-host rules — kill (connection refused), hang (stall until
// the client times out), blackhole (accept, say nothing, sever) — so a test
// can make a specific backend misbehave mid-traffic without owning its
// process. It plugs into server.GatewayConfig.Transport.

// FaultKind selects how a matched request fails.
type FaultKind int

const (
	// FaultKill refuses instantly, as a SIGKILLed process's OS does:
	// connection refused before any byte is written.
	FaultKill FaultKind = iota
	// FaultHang accepts the request and then stalls without answering until
	// the client's timeout fires — the pathological GC pause / stuck disk.
	FaultHang
	// FaultBlackhole accepts, reads nothing, and severs the connection
	// mid-exchange: the caller sees an unexpected EOF after committing the
	// request bytes — the ambiguous "did it apply?" failure.
	FaultBlackhole
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultHang:
		return "hang"
	case FaultBlackhole:
		return "blackhole"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultRule matches requests and fails them. A rule with Count > 0 expires
// after that many matches (then traffic flows normally); Count == 0 matches
// forever until the rule is removed.
type FaultRule struct {
	// Host matches the request URL's host exactly ("" matches every host).
	Host string
	// PathPrefix, when non-empty, restricts the rule to matching paths.
	PathPrefix string
	// Kind is how the matched request fails.
	Kind FaultKind
	// Count limits how many requests the rule consumes (0 = unlimited).
	Count int

	hits atomic.Int64
}

// FaultRoundTripper injects faults into an http.RoundTripper. Zero value is
// not usable; build with NewFaultRoundTripper.
type FaultRoundTripper struct {
	next http.RoundTripper

	mu    sync.Mutex
	rules []*FaultRule

	// Injected counts faults actually delivered, by kind — assertions use it
	// to prove the chaos really happened.
	injected [3]atomic.Int64
	// HangDelay bounds a FaultHang stall (default 5s) so a test that forgot
	// a client timeout fails rather than deadlocks.
	HangDelay time.Duration
}

// NewFaultRoundTripper wraps next (nil = http.DefaultTransport).
func NewFaultRoundTripper(next http.RoundTripper) *FaultRoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &FaultRoundTripper{next: next}
}

// Add installs a rule and returns it (for later Remove).
func (f *FaultRoundTripper) Add(rule *FaultRule) *FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, rule)
	return rule
}

// Remove deletes a rule installed by Add.
func (f *FaultRoundTripper) Remove(rule *FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.rules[:0]
	for _, r := range f.rules {
		if r != rule {
			kept = append(kept, r)
		}
	}
	f.rules = kept
}

// Injected reports how many faults of the kind were actually delivered.
func (f *FaultRoundTripper) Injected(kind FaultKind) int64 {
	return f.injected[kind].Load()
}

// match finds the first live rule for the request and consumes one hit.
func (f *FaultRoundTripper) match(req *http.Request) *FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Host != "" && r.Host != req.URL.Host {
			continue
		}
		if r.PathPrefix != "" && !strings.HasPrefix(req.URL.Path, r.PathPrefix) {
			continue
		}
		if r.Count > 0 && r.hits.Load() >= int64(r.Count) {
			continue
		}
		r.hits.Add(1)
		return r
	}
	return nil
}

// RoundTrip implements http.RoundTripper.
func (f *FaultRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rule := f.match(req)
	if rule == nil {
		return f.next.RoundTrip(req)
	}
	f.injected[rule.Kind].Add(1)
	switch rule.Kind {
	case FaultKill:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connect: connection refused (injected)")}
	case FaultHang:
		delay := f.HangDelay
		if delay <= 0 {
			delay = 5 * time.Second
		}
		timer := time.NewTimer(delay)
		defer timer.Stop()
		if req.Body != nil {
			defer req.Body.Close()
		}
		ctx := req.Context()
		select {
		case <-ctx.Done():
			return nil, &hangTimeoutError{ctx.Err()}
		case <-timer.C:
			return nil, &hangTimeoutError{errors.New("injected hang expired")}
		}
	default: // FaultBlackhole
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer (injected)")}
	}
}

// hangTimeoutError reports itself as a timeout, like a transport deadline.
type hangTimeoutError struct{ err error }

func (e *hangTimeoutError) Error() string   { return "injected hang: " + e.err.Error() }
func (e *hangTimeoutError) Timeout() bool   { return true }
func (e *hangTimeoutError) Temporary() bool { return true }
func (e *hangTimeoutError) Unwrap() error   { return e.err }
