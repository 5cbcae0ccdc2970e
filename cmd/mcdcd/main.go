// Command mcdcd is the MCDC model-serving daemon: it hosts a registry of
// frozen model snapshots (trained with `mcdc -save`) plus a pool of
// streaming sessions, and answers cluster-assignment queries over HTTP/JSON.
//
// Usage:
//
//	mcdcd -model nodes=nodes.bin [-model other=other.bin] [-addr 127.0.0.1:8080]
//	      [-relearn 10m] [-relearn-min 64] [-buffer 4096]
//	      [-seed 1] [-parallel 0] [-shards 16] [-addr-file path]
//	      [-state-dir dir] [-checkpoint 30s] [-session-ttl 1h]
//	      [-max-inflight 0] [-queue-depth 0] [-retry-after 1s]
//	      [-replicate -peers 127.0.0.1:8081,127.0.0.1:8082 [-self addr] [-fleet-secret s]]
//
// Gateway mode — a consistent-hash front end over a fleet of backends:
//
//	mcdcd -backends 127.0.0.1:8081,127.0.0.1:8082
//	      [-health 5s] [-addr :8080] [-addr-file path]
//	      [-retries 2] [-retry-backoff 25ms] [-fleet-secret s]
//
// The gateway's hash ring places every backend at 128 virtual points, the
// count the backends' replicators use, so a session's replica sits on the
// backend the gateway fails over to first.
//
// Drain mode — migrate a backend's sessions away and drop it from the ring
// (run against the gateway; the drained process can then be stopped safely):
//
//	mcdcd -drain 127.0.0.1:8082 -gateway 127.0.0.1:8080
//
// Every endpoint is served under /v1 only; an unversioned path answers 404
// (see internal/server for the full contract, including the binary frame
// protocol on the assign routes):
//
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/metrics
//	curl -X POST localhost:8080/v1/assign -d '{"model":"nodes","row":[0,1,2]}'
//	curl -X POST localhost:8080/v1/assign/batch -d '{"model":"nodes","rows":[[0,1,2],[1,1,0]]}'
//	curl -X POST localhost:8080/v1/models -d '{"name":"fresh","path":"fresh.bin"}'
//
// With -max-inflight > 0 the assignment routes sit behind admission control:
// at most -max-inflight requests execute at once, -queue-depth more wait,
// and anything beyond that is shed with 429 + Retry-After (-retry-after).
//
// -addr supports port 0 (pick a free port); the resolved address is printed
// on stdout and, with -addr-file, written to a file so scripts can wait for
// the daemon deterministically (the file is removed again on shutdown, so a
// stale address from a dead daemon never fools a wait loop). With -relearn
// > 0 a background worker periodically re-trains every model on its recent
// traffic window and hot-swaps it under a bumped epoch. With -state-dir the
// daemon checkpoints every streaming session (periodically, on shutdown, and
// on POST /v1/checkpoint) and a restart resumes each one bit-for-bit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mcdc/internal/server"
)

func main() {
	if err := run(); err != nil {
		//lint:mcdcvet-ignore sloglint fatal startup error; the slog logger is built inside run and may not exist yet
		fmt.Fprintln(os.Stderr, "mcdcd:", err)
		os.Exit(1)
	}
}

// modelFlags collects repeated -model name=path arguments.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func run() error {
	var models modelFlags
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = pick a free port)")
		addrFile   = flag.String("addr-file", "", "write the resolved listen address to this file (removed on shutdown)")
		relearn    = flag.Duration("relearn", 0, "background re-learn interval (0 = disabled)")
		relearnMin = flag.Int("relearn-min", 64, "minimum buffered traffic rows before a re-learn")
		buffer     = flag.Int("buffer", 4096, "per-model traffic window capacity")
		seed       = flag.Int64("seed", 1, "base random seed for re-learning and sessions")
		par        = flag.Int("parallel", 0, "worker goroutines per request fan-out (0 = all cores)")
		shards     = flag.Int("shards", 16, "lock shards of the streaming-session pool")
		stateDir   = flag.String("state-dir", "", "persist session checkpoints under this directory and resume them on startup")
		checkpoint = flag.Duration("checkpoint", 30*time.Second, "periodic session-checkpoint interval with -state-dir (0 = only on shutdown and POST /v1/checkpoint)")
		sessionTTL = flag.Duration("session-ttl", 0, "evict streaming sessions idle this long (0 = never; with -state-dir eviction spills to disk)")
		maxInfl    = flag.Int("max-inflight", 0, "max concurrently executing assignment requests (0 = no admission control)")
		queueDepth = flag.Int("queue-depth", 0, "assignment requests allowed to wait for a slot before shedding with 429")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After delay advertised on shed (429) responses")
		backends   = flag.String("backends", "", "comma-separated backend addresses: run as a consistent-hash gateway instead of serving models")
		health     = flag.Duration("health", 5*time.Second, "gateway per-backend health-check interval (0 = disabled)")
		replicate  = flag.Bool("replicate", false, "checkpoint every session assignment and ship it to the ring successor (requires -state-dir; pair with -peers)")
		peers      = flag.String("peers", "", "comma-separated fleet member addresses (including this daemon) for checkpoint replication")
		selfAddr   = flag.String("self", "", "this daemon's address as peers see it (default: the resolved listen address)")
		fleetKey   = flag.String("fleet-secret", "", "shared secret authenticating intra-fleet endpoints (replica shipping, promotion, membership)")
		retries    = flag.Int("retries", 0, "gateway: retries per transiently failed backend request (0 = default of 2, negative = none)")
		retryWait  = flag.Duration("retry-backoff", 0, "gateway: initial delay between retries, doubling per attempt (0 = default 25ms)")
		drain      = flag.String("drain", "", "client mode: drain this backend via the gateway at -gateway (migrates its sessions, removes it from the ring) and exit")
		gwAddr     = flag.String("gateway", "", "gateway address for -drain")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logSlow    = flag.Duration("log-slow", 0, "warn-log any request slower than this, with its request id (0 = disabled)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (never on the serving mux; empty = disabled)")
		version    = flag.Bool("version", false, "print the version and exit")
	)
	flag.Var(&models, "model", "serve a model snapshot as name=path (repeatable)")
	flag.Parse()

	if *version {
		fmt.Printf("mcdcd %s %s\n", server.Version, runtime.Version())
		return nil
	}
	if *drain != "" {
		return drainBackend(*gwAddr, *drain)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling endpoints
		// must never ride the serving mux, where they would be one routing
		// mistake away from the public API.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Warn("pprof server stopped", "err", err)
			}
		}()
	}

	var handler http.Handler
	var backendSrv *server.Server
	if *backends != "" {
		if len(models) > 0 || *stateDir != "" || *relearn > 0 {
			return errors.New("-backends (gateway mode) is incompatible with -model, -state-dir, and -relearn — those belong on the backends")
		}
		if *replicate || *peers != "" {
			return errors.New("-replicate and -peers belong on the backends, not the gateway")
		}
		gw, err := server.NewGateway(server.GatewayConfig{
			Backends:     strings.Split(*backends, ","),
			HealthEvery:  *health,
			Retries:      *retries,
			RetryBackoff: *retryWait,
			FleetSecret:  *fleetKey,
			Logger:       logger,
			LogSlow:      *logSlow,
		})
		if err != nil {
			return err
		}
		defer gw.Close()
		logger.Info("gateway mode", "backends", strings.Join(gw.Backends(), ","), "count", len(gw.Backends()))
		handler = gw.Handler()
	} else {
		if *peers != "" && !*replicate {
			return errors.New("-peers needs -replicate (checkpoint-per-assignment is what makes failover byte-identical)")
		}
		srv, err := server.New(server.Config{
			Replicate:       *replicate,
			Seed:            *seed,
			Workers:         *par,
			SessionShards:   *shards,
			RelearnEvery:    *relearn,
			RelearnMin:      *relearnMin,
			BufferSize:      *buffer,
			StateDir:        *stateDir,
			CheckpointEvery: *checkpoint,
			SessionTTL:      *sessionTTL,
			MaxInFlight:     *maxInfl,
			QueueDepth:      *queueDepth,
			RetryAfter:      *retryAfter,
			Logger:          logger,
			LogSlow:         *logSlow,
		})
		if err != nil {
			return err
		}
		// Runs after the HTTP server has drained: with -state-dir this is the
		// final checkpoint flush, so a SIGTERM loses no session state.
		defer srv.Close()
		for _, m := range models {
			if _, _, err := srv.LoadModelFile(m.name, m.path); err != nil {
				return err
			}
		}
		if len(models) == 0 {
			logger.Info("no -model given; starting empty (load models via POST /v1/models)")
		}
		handler = srv.Handler()
		backendSrv = srv
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	fmt.Printf("mcdcd listening on %s\n", resolved)
	if backendSrv != nil && (*peers != "" || *fleetKey != "") {
		// The fleet is wired only now that the listen address is resolved, so
		// -self can default to it (covering -addr with port 0). Peers may name
		// this daemon too; the replicator skips self when picking a successor.
		self := *selfAddr
		if self == "" {
			self = resolved
		}
		var fleet []string
		if *peers != "" {
			fleet = strings.Split(*peers, ",")
		}
		backendSrv.ConfigureReplication(self, fleet, *fleetKey)
		logger.Info("replication configured", "self", self, "peers", strings.Join(fleet, ","))
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved), 0o644); err != nil {
			ln.Close()
			return err
		}
		// A dead daemon must not leave its address behind: wait-for-ready
		// scripts treat the file's existence as liveness.
		defer os.Remove(*addrFile)
	}

	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// drainBackend is the client side of `mcdcd -drain`: it asks the gateway to
// migrate every session off the named backend and drop it from the ring, then
// reports what moved. The backend process itself is left running — stopping
// it afterwards is safe precisely because it no longer owns anything.
func drainBackend(gateway, backend string) error {
	if gateway == "" {
		return errors.New("-drain needs -gateway <addr>")
	}
	if !strings.Contains(gateway, "://") {
		gateway = "http://" + gateway
	}
	body, _ := json.Marshal(map[string]string{"backend": backend})
	resp, err := http.Post(gateway+"/v1/ring/leave", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain: gateway answered %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var out struct {
		Backend  string   `json:"backend"`
		Migrated []string `json:"migrated"`
		Members  []string `json:"members"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("drain: parsing gateway response: %w", err)
	}
	fmt.Printf("drained %s: %d sessions migrated, ring now [%s]\n", out.Backend, len(out.Migrated), strings.Join(out.Members, " "))
	return nil
}

// buildLogger constructs the daemon's slog.Logger from -log-format and
// -log-level. Logs go to stderr so stdout stays reserved for the resolved
// listen address, which wait-for-ready scripts parse.
func buildLogger(format, level string) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: l}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}
