// Package client is the typed Go client for mcdcd, the MCDC model-serving
// daemon. It speaks the v1 HTTP API — either JSON or the binary frame
// protocol (internal/model wire codec) behind the same method set — against
// a single daemon or a gateway fleet interchangeably:
//
//	c := client.New("127.0.0.1:8080", client.WithBinary())
//	a, err := c.Assign(ctx, "nodes", []int{0, 1, 2})
//	as, err := c.AssignBatch(ctx, "nodes", rows) // one request in either mode
//
// Every server-side error surfaces as *APIError carrying the stable code
// from the v1 error envelope (bad_request, unknown_model, unknown_session,
// conflict, version_mismatch, overloaded, internal, bad_gateway). Overload
// (429) is retried transparently, honoring the server's Retry-After delay,
// up to the configured attempt budget; all waiting respects the context.
package client

import (
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

// call sends one request, with body as Content-Type ctype when body is
// non-nil, and returns the whole reply body of a success. A 429 is retried
// with the same bytes after the advertised Retry-After delay; any other
// failure, or a 429 past the retry budget, returns as an *APIError.
func (c *Client) call(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	reqID := requestIDFrom(ctx)
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", ctype)
		}
		if reqID != "" {
			req.Header.Set(RequestIDHeader, reqID)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode < http.StatusBadRequest {
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			return data, err
		}
		apiErr := decodeAPIError(resp) // drains and closes the body
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return nil, apiErr
		}
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

// postJSON round-trips one JSON request; in and out may be nil.
func (c *Client) postJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	data, err := c.call(ctx, method, path, "application/json", body)
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
	data, err := c.call(ctx, http.MethodPost, "/v1/assign", "application/json", model.AppendAssignJSON(nil, modelName, session, row))
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
	data, err := c.call(ctx, http.MethodPost, "/v1/assign", wireContentType, body.Bytes())
	if err != nil {
		return nil, err
	}
	// A cut reply still answers the frames before the cut.
	frames, err := model.SplitFrames(data, make([]model.Frame, 0, len(reqs)))
	out := make([]Assignment, 0, len(reqs))
	var enc []int // every encoding is carved from this one slice
	for _, f := range frames {
		switch f.Kind {
		case model.FrameResult:
			a, epoch, e, derr := model.DecodeResultAppend(f.Payload, enc)
			if derr != nil {
				return out, derr
			}
			enc = e
			out = append(out, Assignment{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding})
		case model.FrameError:
			code, msg, derr := model.DecodeError(f.Payload)
			if derr != nil {
				return out, derr
			}
			return out, &APIError{Status: http.StatusOK, Code: code, Message: msg}
		default:
			return out, fmt.Errorf("client: unexpected frame kind %q", f.Kind)
		}
	}
	if err == nil && len(out) != len(reqs) {
		err = io.ErrUnexpectedEOF
	}
	return out, err
}

// AssignBatch assigns a batch of rows against one model in one request: in
// binary mode a frame stream whose rows travel in chunks of at most
// 1 MiB, in JSON mode the standard batch body. Either way the server reads
// the whole request before it answers, and refuses one larger than 64 MiB
// (400 bad_request), so split a larger batch into several calls. All
// returned assignments carry the snapshot epoch that served the batch.
func (c *Client) AssignBatch(ctx context.Context, modelName string, rows [][]int) ([]Assignment, error) {
	if c.binary {
		data, err := c.call(ctx, http.MethodPost, "/v1/assign/batch", wireContentType, model.AppendBatchFrames(nil, modelName, rows))
		if err != nil {
			return nil, err
		}
		epoch, asgs, err := model.DecodeBatchReplyFrames(data)
		if err != nil {
			return nil, fmt.Errorf("client: batch stream: %w", err)
		}
		out := make([]Assignment, len(asgs))
		for i, a := range asgs {
			out[i] = Assignment{Cluster: a.Cluster, Similarity: a.Similarity, Epoch: epoch, Encoding: a.Encoding}
		}
		return out, nil
	}
	data, err := c.call(ctx, http.MethodPost, "/v1/assign/batch", "application/json", model.AppendBatchJSON(nil, modelName, rows))
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
