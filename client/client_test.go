package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/model"
	"mcdc/internal/server"
)

// serveModel trains a small model, loads it into a fresh daemon core, and
// returns its address plus the training rows.
func serveModel(t *testing.T) (addr string, rows [][]int) {
	t.Helper()
	ds := mcdc.SyntheticDataset("nodes", 400, 6, 3, 1)
	res, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nodes.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Seed: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.LoadModelFile("nodes", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL, ds.Rows
}

// TestClientProtocols drives the same queries over JSON and binary and pins
// their parity; the typed surface must not leak which wire format ran.
func TestClientProtocols(t *testing.T) {
	addr, rows := serveModel(t)
	ctx := context.Background()
	cj := client.New(addr)
	cb := client.New(addr, client.WithBinary())

	if err := cj.Health(ctx); err != nil {
		t.Fatal(err)
	}
	models, err := cj.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "nodes" || models[0].K != 3 || len(models[0].Cardinalities) != 6 {
		t.Fatalf("models = %+v", models)
	}

	aj, err := cj.Assign(ctx, "nodes", rows[0])
	if err != nil {
		t.Fatal(err)
	}
	ab, err := cb.Assign(ctx, "nodes", rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aj, ab) {
		t.Fatalf("JSON assign %+v != binary assign %+v", aj, ab)
	}
	if aj.Cluster < 0 || aj.Cluster >= 3 || aj.Epoch != models[0].Epoch {
		t.Fatalf("implausible assignment %+v", aj)
	}

	batch, err := cj.AssignBatch(ctx, "nodes", rows[:25])
	if err != nil {
		t.Fatal(err)
	}
	batchB, err := cb.AssignBatch(ctx, "nodes", rows[:25])
	if err != nil {
		t.Fatal(err)
	}
	many, err := cb.AssignMany(ctx, "nodes", rows[:25])
	if err != nil {
		t.Fatal(err)
	}
	manyJ, err := cj.AssignMany(ctx, "nodes", rows[:25])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, batchB) || !reflect.DeepEqual(batch, many) || !reflect.DeepEqual(batch, manyJ) {
		t.Fatal("batch/pipelined answers diverge across protocols")
	}
	if !reflect.DeepEqual(batch[0], aj) {
		t.Fatalf("batch row 0 %+v != single assign %+v", batch[0], aj)
	}
}

// chunkCounter counts the 'R' frames of the binary batch requests it
// carries.
type chunkCounter struct {
	chunks atomic.Int64
}

func (cc *chunkCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/assign/batch" && r.Header.Get("Content-Type") == server.WireContentType {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		frames, err := model.SplitFrames(body, nil)
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			if f.Kind == model.FrameRows {
				cc.chunks.Add(1)
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClientLargeBatchMatchesJSON pins a binary AssignBatch whose rows take
// several chunks against JSON AssignBatch, through a daemon and through a
// 2-backend gateway: the answers must be identical.
func TestClientLargeBatchMatchesJSON(t *testing.T) {
	addr, train := serveModel(t)
	second, _ := serveModel(t)
	gw, err := server.NewGateway(server.GatewayConfig{Backends: []string{strings.TrimPrefix(addr, "http://"), strings.TrimPrefix(second, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { gts.Close(); gw.Close() })

	rows := make([][]int, 20000) // (6 + 1) × 10 bytes counted per row: ~15,000 rows a chunk
	for i := range rows {
		rows[i] = train[i%len(train)]
	}
	ctx := context.Background()
	for _, url := range []string{addr, gts.URL} {
		cc := &chunkCounter{}
		binary := client.New(url, client.WithBinary(), client.WithHTTPClient(&http.Client{Transport: cc}))
		got, err := binary.AssignBatch(ctx, "nodes", rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := client.New(url).AssignBatch(ctx, "nodes", rows)
		if err != nil {
			t.Fatal(err)
		}
		if n := cc.chunks.Load(); n < 2 {
			t.Fatalf("%s: the binary batch went as %d chunks, want several", url, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: binary and JSON batches answer differently", url)
		}
	}
}

// TestClientSessions exercises the session lifecycle and the stable error
// codes around it, over both protocols.
func TestClientSessions(t *testing.T) {
	addr, rows := serveModel(t)
	ctx := context.Background()
	for _, proto := range []struct {
		name string
		c    *client.Client
	}{
		{"json", client.New(addr)},
		{"binary", client.New(addr, client.WithBinary())},
	} {
		t.Run(proto.name, func(t *testing.T) {
			c := proto.c
			id := "sess-" + proto.name
			if err := c.CreateSession(ctx, id, "nodes", client.SessionConfig{}); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateSession(ctx, id, "nodes", client.SessionConfig{}); !client.IsCode(err, "conflict") {
				t.Fatalf("duplicate create: %v, want conflict", err)
			}
			for _, row := range rows[:10] {
				if _, err := c.AssignSession(ctx, id, row); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.DeleteSession(ctx, id); err != nil {
				t.Fatal(err)
			}
			if err := c.DeleteSession(ctx, id); !client.IsCode(err, "unknown_session") {
				t.Fatalf("double delete: %v, want unknown_session", err)
			}
			if _, err := c.AssignSession(ctx, id, rows[0]); !client.IsCode(err, "unknown_session") {
				t.Fatalf("assign to deleted session: %v, want unknown_session", err)
			}
		})
	}
}

// TestClientErrors pins the typed error surface: *APIError with status,
// code, and message, recognized by errors.As and IsCode.
func TestClientErrors(t *testing.T) {
	addr, rows := serveModel(t)
	ctx := context.Background()
	c := client.New(addr)

	_, err := c.Assign(ctx, "ghost", rows[0])
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != "unknown_model" || ae.Message == "" {
		t.Fatalf("APIError = %+v", ae)
	}
	if !client.IsCode(err, "unknown_model") || client.IsCode(err, "overloaded") || client.IsCode(nil, "x") {
		t.Fatal("IsCode misclassifies")
	}

	// Binary in-band errors surface through the same type.
	cb := client.New(addr, client.WithBinary())
	if _, err := cb.Assign(ctx, "ghost", rows[0]); !client.IsCode(err, "unknown_model") {
		t.Fatalf("binary in-band error: %v, want unknown_model", err)
	}

	if _, err := c.LoadModel(ctx, "x", filepath.Join(t.TempDir(), "missing.bin")); !client.IsCode(err, "bad_request") {
		t.Fatalf("load missing snapshot: %v, want bad_request", err)
	}
}

// TestClientRetriesOverload pins the backpressure contract on the client
// side: a 429 with Retry-After is retried transparently after the indicated
// delay, and gives up with the overloaded error once retries are spent.
func TestClientRetriesOverload(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"server at capacity","code":"overloaded"}`)
			return
		}
		fmt.Fprintln(w, `{"cluster":1,"similarity":0.5,"epoch":1}`)
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	t0 := time.Now()
	a, err := c.Assign(context.Background(), "m", []int{1})
	if err != nil {
		t.Fatalf("assign should survive two sheds: %v", err)
	}
	if a.Cluster != 1 || hits.Load() != 3 {
		t.Fatalf("assignment %+v after %d hits", a, hits.Load())
	}
	if waited := time.Since(t0); waited < 2*time.Second {
		t.Fatalf("client ignored Retry-After: waited only %v", waited)
	}

	// With retries exhausted the overload surfaces as a typed error.
	hits.Store(0)
	c0 := client.New(ts.URL, client.WithMaxRetries(1))
	if _, err := c0.Assign(context.Background(), "m", []int{1}); !client.IsCode(err, "overloaded") {
		t.Fatalf("exhausted retries: %v, want overloaded", err)
	}

	// A binary batch shed twice is resent with the same bytes each time.
	var mu sync.Mutex
	var bodies [][]byte
	bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, body)
		n := len(bodies)
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"server at capacity","code":"overloaded"}`)
			return
		}
		frames, err := model.SplitFrames(body, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		name, chunks, err := model.DecodeBatchFrames(frames)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var asgs []model.Assignment
		for _, chunk := range chunks {
			for _, row := range chunk {
				asgs = append(asgs, model.Assignment{Cluster: row[0], Similarity: 0.5})
			}
		}
		w.Header().Set("Content-Type", server.WireContentType)
		_, _ = w.Write(model.AppendBatchReplyFrames(nil, name, 4, chunks, asgs))
	}))
	defer bts.Close()
	batch, err := client.New(bts.URL, client.WithBinary()).AssignBatch(context.Background(), "m", [][]int{{2}, {0, 1}, {1}})
	if err != nil {
		t.Fatalf("binary batch should survive two sheds: %v", err)
	}
	if want := []client.Assignment{{Cluster: 2, Similarity: 0.5, Epoch: 4}, {Cluster: 0, Similarity: 0.5, Epoch: 4}, {Cluster: 1, Similarity: 0.5, Epoch: 4}}; !reflect.DeepEqual(batch, want) {
		t.Fatalf("binary batch answered %+v, want %+v", batch, want)
	}
	mu.Lock()
	if len(bodies) != 3 || !bytes.Equal(bodies[1], bodies[0]) || !bytes.Equal(bodies[2], bodies[0]) {
		t.Fatalf("%d attempts; the resent bodies differ from the first", len(bodies))
	}
	mu.Unlock()

	// A canceled context cuts the retry wait short.
	hits.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 = time.Now()
	if _, err := c.Assign(ctx, "m", []int{1}); err == nil {
		t.Fatal("assign should fail when the context dies mid-retry")
	}
	if time.Since(t0) > time.Second {
		t.Fatal("retry wait ignored context cancellation")
	}
}

// TestClientModelManagement loads, lists, checkpoints, and deletes through
// the typed surface.
func TestClientModelManagement(t *testing.T) {
	addr, _ := serveModel(t)
	ctx := context.Background()
	c := client.New(addr)

	ds := mcdc.SyntheticDataset("extra", 200, 5, 2, 9)
	res, err := mcdc.Cluster(ds, 2, mcdc.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "extra.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := c.LoadModel(ctx, "extra", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "extra" || info.K != 2 || info.Features != 5 {
		t.Fatalf("loaded info %+v", info)
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("serving %d models, want 2", len(models))
	}
	if _, err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteModel(ctx, "extra"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteModel(ctx, "extra"); !client.IsCode(err, "unknown_model") {
		t.Fatalf("double delete: %v, want unknown_model", err)
	}
}
