package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"mcdc/client"
	"mcdc/internal/server"
)

// fleet is an in-process mcdcd deployment on loopback sockets: backends
// built with server.New, loaded with LoadModelFile, wired for replication
// with ConfigureReplication, and fronted by a server.NewGateway gateway —
// the same public calls and the same defaults cmd/mcdcd uses.
type fleet struct {
	backends []*server.Server
	addrs    []string
	gateway  *server.Gateway
	gwAddr   string
	// upstream is the gateway's own connection pool, as a separate mcdcd
	// process would have; backends share http.DefaultTransport for ships.
	upstream *http.Transport
	servers  []*http.Server
	serving  sync.WaitGroup
}

type fleetConfig struct {
	backends  int
	replicate bool
	stateDir  string            // required with replicate
	models    map[string]string // name → snapshot file, loaded on every backend
	tr        *tracer           // nil: no spans
}

// backendConfig is cmd/mcdcd's flag defaults, plus the durability settings
// a replicated fleet runs with.
func backendConfig(replicate bool, stateDir string) server.Config {
	cfg := server.Config{
		Seed:          1,
		SessionShards: 16,
		RelearnMin:    64,
		BufferSize:    4096,
		RetryAfter:    time.Second,
	}
	if replicate {
		cfg.Replicate = true
		cfg.StateDir = stateDir
		cfg.CheckpointEvery = 30 * time.Second
	}
	return cfg
}

func bootFleet(fc fleetConfig) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	for i := 0; i < fc.backends; i++ {
		srv, err := server.New(backendConfig(fc.replicate, filepath.Join(fc.stateDir, fmt.Sprintf("b%d", i))))
		if err != nil {
			return f, err
		}
		f.backends = append(f.backends, srv)
		for name, path := range fc.models {
			if _, _, err := srv.LoadModelFile(name, path); err != nil {
				return f, err
			}
		}
		addr, err := f.serve(srv.Handler(), fc.tr, spanServer)
		if err != nil {
			return f, err
		}
		f.addrs = append(f.addrs, addr)
	}
	if fc.replicate {
		for i, srv := range f.backends {
			srv.ConfigureReplication(f.addrs[i], f.addrs, "")
		}
	}
	f.upstream = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = f.upstream
	if fc.tr != nil {
		rt = &tracedTransport{t: fc.tr, kind: spanUpstream, inner: f.upstream}
	}
	f.gateway, err = server.NewGateway(server.GatewayConfig{
		Backends:    f.addrs,
		Replicas:    128,
		HealthEvery: 5 * time.Second,
		Transport:   rt,
	})
	if err != nil {
		return f, err
	}
	f.gwAddr, err = f.serve(f.gateway.Handler(), fc.tr, spanGateway)
	return f, err
}

// serve listens on a fresh loopback port and serves h there (wrapped in a
// span recorder when tracing), returning the address.
func (f *fleet) serve(h http.Handler, tr *tracer, kind spanKind) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if tr != nil {
		h = &tracedHandler{t: tr, kind: kind, addr: addr, inner: h}
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		// Serve returns only once close() has closed hs; a failure before
		// that shows up as failed requests.
		_ = hs.Serve(ln)
	}()
	return addr, nil
}

// newClient builds the load generator's client of the gateway: its own
// connection pool, capped at one connection per sender, traced when tr is
// set. The caller closes the returned transport's idle connections.
func (f *fleet) newClient(tr *tracer, opts ...client.Option) (*client.Client, *http.Client, *http.Transport) {
	pool := http.DefaultTransport.(*http.Transport).Clone()
	pool.MaxConnsPerHost = senders
	pool.MaxIdleConnsPerHost = senders
	var rt http.RoundTripper = pool
	if tr != nil {
		rt = &tracedTransport{t: tr, kind: spanTransport, inner: pool}
	}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: rt}
	return client.New(f.gwAddr, append(opts, client.WithHTTPClient(hc))...), hc, pool
}

// close stops the listeners first, then the gateway and backends (which
// flush their final checkpoints), then idle upstream connections.
func (f *fleet) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.serving.Wait()
	if f.gateway != nil {
		f.gateway.Close()
	}
	for _, srv := range f.backends {
		srv.Close()
	}
	if f.upstream != nil {
		f.upstream.CloseIdleConnections()
	}
}
