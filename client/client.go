// Package client is the typed Go client for mcdcd, the MCDC model-serving
// daemon. It speaks the v1 HTTP API — either JSON or the binary frame
// protocol (internal/model wire codec) behind the same method set — against
// a single daemon or a gateway fleet interchangeably:
//
//	c := client.New("127.0.0.1:8080", client.WithBinary())
//	a, err := c.Assign(ctx, "nodes", []int{0, 1, 2})
//	as, err := c.AssignBatch(ctx, "nodes", rows) // streamed in binary mode
//
// Every server-side error surfaces as *APIError carrying the stable code
// from the v1 error envelope (bad_request, unknown_model, unknown_session,
// conflict, version_mismatch, overloaded, bad_gateway). Overload (429) is
// retried transparently, honoring the server's Retry-After delay, up to the
// configured attempt budget; all waiting respects the context.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mcdc/internal/model"
)

// wireContentType mirrors server.WireContentType; redeclared so the client
// package's public surface depends only on internal/model.
const wireContentType = "application/x-mcdc-frame"

// RequestIDHeader is the correlation header the serving stack mints, accepts,
// and echoes on every response (mirrors server.RequestIDHeader).
const RequestIDHeader = "X-MCDC-Request-Id"

// ctxKeyRequestID keys a caller-chosen request id inside a context.
type ctxKeyRequestID struct{}

// WithRequestID returns a context that makes every request issued under it
// carry id in the X-MCDC-Request-Id header, so a caller can correlate its own
// identifiers with server-side logs and traces. An empty id is ignored and
// the server mints one instead.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID{}, id)
}

// requestIDFrom extracts the id planted by WithRequestID, if any.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// batchChunk is the row count per 'R' frame in binary batch streaming —
// large enough to amortize framing, small enough to bound both sides'
// memory per chunk.
const batchChunk = 1024

// Assignment is one cluster-assignment result.
type Assignment struct {
	Cluster    int     `json:"cluster"`
	Similarity float64 `json:"similarity"`
	Epoch      int     `json:"epoch"`
	Encoding   []int   `json:"encoding,omitempty"`
}

// ModelInfo describes one served model, including the per-feature
// cardinalities a caller needs to synthesize valid rows.
type ModelInfo struct {
	Name          string `json:"name"`
	K             int    `json:"k"`
	Epoch         int    `json:"epoch"`
	Features      int    `json:"features"`
	Cardinalities []int  `json:"cardinalities,omitempty"`
	Kappa         []int  `json:"kappa,omitempty"`
	TrainN        int    `json:"train_n"`
	Buffered      int    `json:"buffered"`
}

// SessionConfig tunes CreateSession; the zero value takes server defaults.
type SessionConfig struct {
	Window int   `json:"window,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// APIError is a server-side failure: the HTTP status, the stable machine
// code from the v1 error envelope, the human message, and — for overloaded
// (429) responses — the parsed Retry-After delay.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mcdcd: %s (%s, status %d)", e.Message, e.Code, e.Status)
}

// Option configures a Client.
type Option func(*Client)

// WithBinary selects the binary frame protocol for the assignment paths
// (management endpoints stay JSON — they are not hot).
func WithBinary() Option { return func(c *Client) { c.binary = true } }

// WithJSON selects JSON for everything (the default).
func WithJSON() Option { return func(c *Client) { c.binary = false } }

// WithHTTPClient substitutes the transport (timeouts, connection pooling).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds the transparent retries of overloaded (429)
// responses; 0 disables retrying. The default is 3.
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// Client is a typed mcdcd client. It is safe for concurrent use; the
// underlying http.Client pools keep-alive connections, so pipelined binary
// streams ride persistent connections without extra setup.
type Client struct {
	base       string // http://host:port
	hc         *http.Client
	binary     bool
	maxRetries int
}

// New builds a client for a daemon or gateway address ("host:port" or a
// full http:// base URL).
func New(addr string, opts ...Option) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		maxRetries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ---- request plumbing ----

// doRetry performs a request built fresh per attempt (a consumed body
// cannot be resent), transparently retrying 429s after the advertised
// Retry-After delay. Any non-429 response returns to the caller, who owns
// resp.Body.
func (c *Client) doRetry(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	reqID := requestIDFrom(ctx)
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		if reqID != "" {
			req.Header.Set(RequestIDHeader, reqID)
		}
		resp, err := c.hc.Do(req.WithContext(ctx))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return resp, nil
		}
		apiErr := decodeAPIError(resp) // drains and closes the body
		select {
		case <-time.After(apiErr.RetryAfter):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// decodeAPIError consumes a failure response into an *APIError.
func decodeAPIError(resp *http.Response) *APIError {
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	e := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(data, &env) == nil && env.Code != "" {
		e.Code, e.Message = env.Code, env.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	} else {
		e.RetryAfter = time.Second
	}
	return e
}

// post round-trips one request whose body, when there is one, is JSON, and
// returns the whole reply body of a success.
func (c *Client) post(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= http.StatusBadRequest {
		return nil, decodeAPIError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// postJSON round-trips one JSON request; in and out may be nil.
func (c *Client) postJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	data, err := c.post(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(out)
}

// ---- assignment ----

// Assign assigns one row against a served model.
func (c *Client) Assign(ctx context.Context, modelName string, row []int) (Assignment, error) {
	return c.assign(ctx, modelName, "", row)
}

// AssignSession assigns one row against a streaming session (stateful: the
// session learns from the row).
func (c *Client) AssignSession(ctx context.Context, session string, row []int) (Assignment, error) {
	return c.assign(ctx, "", session, row)
}

func (c *Client) assign(ctx context.Context, modelName, session string, row []int) (Assignment, error) {
	if c.binary {
		as, err := c.assignWire(ctx, []wireAssignReq{{modelName, session, row}})
		if err != nil {
			return Assignment{}, err
		}
		return as[0], nil
	}
	data, err := c.post(ctx, http.MethodPost, "/v1/assign", model.AppendAssignJSON(nil, modelName, session, row))
	if err != nil {
		return Assignment{}, err
	}
	r, err := model.DecodeResultJSON(data)
	return Assignment(r), err
}

// AssignMany assigns many independent rows in one round trip. In binary
// mode the rows pipeline as frames over one request; in JSON mode it
// degrades to sequential Assign calls. Per-row failures surface as the
// first row's error (rows before it are already assigned server-side,
// matching per-request semantics).
func (c *Client) AssignMany(ctx context.Context, modelName string, rows [][]int) ([]Assignment, error) {
	if c.binary {
		reqs := make([]wireAssignReq, len(rows))
		for i, row := range rows {
			reqs[i] = wireAssignReq{modelName, "", row}
		}
		return c.assignWire(ctx, reqs)
	}
	out := make([]Assignment, len(rows))
	for i, row := range rows {
		a, err := c.Assign(ctx, modelName, row)
		if err != nil {
			return out[:i], err
		}
		out[i] = a
	}
	return out, nil
}

type wireAssignReq struct {
	model, session string
	row            []int
}

// assignWire pipelines assign frames over one POST and decodes the
// in-order responses.
func (c *Client) assignWire(ctx context.Context, reqs []wireAssignReq) ([]Assignment, error) {
	var body bytes.Buffer
	_ = model.WriteWireHeader(&body)
	var payload []byte
	for _, r := range reqs {
		payload = model.AppendAssignRequest(payload[:0], r.model, r.session, r.row)
		_ = model.WriteFrame(&body, model.FrameAssign, payload)
	}
	raw := body.Bytes()
	resp, err := c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/assign", bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wireContentType)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= http.StatusBadRequest {
		return nil, decodeAPIError(resp)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if err := model.ReadWireHeader(br); err != nil {
		return nil, err
	}
	// The reply's frames are read through payload's storage, and their
	// encodings are carved from one shared slice.
	out := make([]Assignment, 0, len(reqs))
	var enc []int
	for {
		kind, p, err := model.ReadFrame(br, payload)
		if err == io.EOF {
			if len(out) != len(reqs) {
				return out, io.ErrUnexpectedEOF
			}
			return out, nil
		}
		if err != nil {
			return out, err
		}
		payload = p
		switch kind {
		case model.FrameResult:
			var a model.Assignment
			var epoch int
			if a, epoch, enc, err = model.DecodeResultAppend(payload, enc); err != nil {
				return out, err
			}
			out = append(out, Assignment{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding})
		case model.FrameError:
			code, msg, derr := model.DecodeError(payload)
			if derr != nil {
				return out, derr
			}
			return out, &APIError{Status: http.StatusOK, Code: code, Message: msg}
		default:
			return out, fmt.Errorf("client: unexpected frame kind %q", kind)
		}
	}
}

// AssignBatch assigns a batch of rows against one model. In binary mode the
// request streams from the client as row chunks and results decode as they
// arrive; in JSON mode it posts the standard batch request. Either way the
// server reads the whole request before it answers, and refuses one larger
// than 64 MiB (400 bad_request), so split a larger batch into several
// calls. All returned assignments carry the snapshot epoch that served the
// batch.
func (c *Client) AssignBatch(ctx context.Context, modelName string, rows [][]int) ([]Assignment, error) {
	if c.binary {
		return c.assignBatchWire(ctx, modelName, rows)
	}
	data, err := c.post(ctx, http.MethodPost, "/v1/assign/batch", model.AppendBatchJSON(nil, modelName, rows))
	if err != nil {
		return nil, err
	}
	replies, err := model.DecodeBatchReplyJSON(data)
	if err != nil {
		return nil, err
	}
	out := make([]Assignment, len(replies))
	for i, r := range replies {
		out[i] = Assignment(r)
	}
	return out, nil
}

func (c *Client) assignBatchWire(ctx context.Context, modelName string, rows [][]int) ([]Assignment, error) {
	// The body is regenerated per attempt via an io.Pipe so a shed-and-retry
	// still streams instead of buffering the whole batch.
	build := func() (*http.Request, error) {
		pr, pw := io.Pipe()
		go func() {
			var buf []byte
			bw := bufio.NewWriter(pw)
			_ = model.WriteWireHeader(bw)
			_ = model.WriteFrame(bw, model.FrameBatchStart, model.AppendBatchStart(nil, modelName))
			for off := 0; off < len(rows); off += batchChunk {
				end := off + batchChunk
				if end > len(rows) {
					end = len(rows)
				}
				buf = model.AppendRows(buf[:0], rows[off:end])
				if err := model.WriteFrame(bw, model.FrameRows, buf); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			_ = model.WriteFrame(bw, model.FrameEnd, nil)
			pw.CloseWithError(bw.Flush())
		}()
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/assign/batch", pr)
		if err != nil {
			pr.Close()
			return nil, err
		}
		req.Header.Set("Content-Type", wireContentType)
		return req, nil
	}
	resp, err := c.doRetry(ctx, build)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= http.StatusBadRequest {
		return nil, decodeAPIError(resp)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if err := model.ReadWireHeader(br); err != nil {
		return nil, err
	}
	epoch := 0
	var results []model.Assignment
	sawEnd := false
	var payload []byte // one buffer for every frame of the reply
	for !sawEnd {
		kind, p, err := model.ReadFrame(br, payload)
		if err != nil {
			return nil, fmt.Errorf("client: batch stream: %w", err)
		}
		payload = p
		switch kind {
		case model.FrameBatchInfo:
			if _, epoch, err = model.DecodeBatchInfo(payload); err != nil {
				return nil, err
			}
		case model.FrameResults:
			if results, err = model.DecodeResults(payload, results); err != nil {
				return nil, err
			}
		case model.FrameEnd:
			sawEnd = true
		case model.FrameError:
			code, msg, derr := model.DecodeError(payload)
			if derr != nil {
				return nil, derr
			}
			return nil, &APIError{Status: http.StatusOK, Code: code, Message: msg}
		default:
			return nil, fmt.Errorf("client: unexpected frame kind %q in batch stream", kind)
		}
	}
	out := make([]Assignment, len(results))
	for i, a := range results {
		out[i] = Assignment{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding}
	}
	return out, nil
}

// ---- sessions, models, operations ----

// CreateSession creates a streaming session whose schema comes from a
// served model.
func (c *Client) CreateSession(ctx context.Context, id, modelName string, cfg SessionConfig) error {
	in := map[string]any{"session": id, "model": modelName}
	if cfg.Window > 0 {
		in["window"] = cfg.Window
	}
	if cfg.Seed != 0 {
		in["seed"] = cfg.Seed
	}
	return c.postJSON(ctx, http.MethodPost, "/v1/sessions", in, nil)
}

// DeleteSession removes a streaming session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.postJSON(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// LoadModel loads (or hot-swaps) a snapshot file server-side under name.
func (c *Client) LoadModel(ctx context.Context, name, path string) (ModelInfo, error) {
	var out ModelInfo
	err := c.postJSON(ctx, http.MethodPost, "/v1/models", map[string]string{"name": name, "path": path}, &out)
	return out, err
}

// DeleteModel unloads a served model.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.postJSON(ctx, http.MethodDelete, "/v1/models/"+name, nil, nil)
}

// Models lists the served models.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	err := c.postJSON(ctx, http.MethodGet, "/v1/models", nil, &out)
	return out.Models, err
}

// Checkpoint flushes every session checkpoint on demand and reports how
// many were written.
func (c *Client) Checkpoint(ctx context.Context) (int, error) {
	var out map[string]int
	if err := c.postJSON(ctx, http.MethodPost, "/v1/checkpoint", nil, &out); err != nil {
		return 0, err
	}
	return out["checkpointed"], nil
}

// Health probes /v1/healthz; a degraded gateway (503) reports as *APIError.
func (c *Client) Health(ctx context.Context) error {
	return c.postJSON(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// IsCode reports whether err is an *APIError carrying the given stable code.
func IsCode(err error, code string) bool {
	var e *APIError
	return errors.As(err, &e) && e.Code == code
}
