package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/model"
	"mcdc/internal/server"
)

// Session sets: the warm-up and the open loop drive the "o" sessions, so
// their request stream and state trajectory repeat exactly for a seed; the
// closed loop drives its own "c" sessions.
const (
	openSet   = "o"
	closedSet = "c"
)

// servingRun is one serving workload's state across its phases.
type servingRun struct {
	opt  options
	spec *servingSpec
	res  *result
	tmp  string

	ds        *mcdc.Dataset // training set
	trained   *mcdc.Result
	modelPath string
	pool      [][]int    // traffic rows
	expect    []expected // in-process answers for pool rows

	tr     *tracer // nil on untraced runs
	fleet  *fleet
	loadTr *http.Transport
	cl     *client.Client
	hc     *http.Client

	// lastEpoch is each session's last answered model epoch, per set; sender
	// s only touches the sessions of its parity.
	lastEpoch map[string][]int
	probe     []probeStep    // session o-00 through warm-up and open loop
	senderLog []*senderState // every phase's senders, for the answer checks
}

type expected struct {
	cluster int
	sim     uint64 // math.Float64bits of the similarity
}

type probeStep struct {
	row     int // pool index
	cluster int
	sim     uint64
	epoch   int
}

func runServing(ctx context.Context, opt options, w *workload) (*result, error) {
	tmp, err := os.MkdirTemp("", "mcdc-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &servingRun{
		opt:       opt,
		spec:      w.serving,
		res:       &result{Workload: w.name, Traced: opt.trace},
		tmp:       tmp,
		modelPath: filepath.Join(tmp, modelName+".model"),
		lastEpoch: map[string][]int{openSet: newEpochs(), closedSet: newEpochs()},
	}
	warm, open, closed := phaseSeconds(opt.seconds)
	if opt.trace {
		n := int(r.spec.rate * (warm + open).Seconds())
		r.tr = newTracer(8*n + 4096)
	}

	// Set-up is everything before the first timed request. It runs several
	// times (each on a fresh fleet) and reports the median, so that work
	// moved into set-up shows.
	repeats := 5
	if opt.trace || opt.quick {
		repeats = 1
	}
	var setups []time.Duration
	for k := 0; k < repeats; k++ {
		r.teardown()
		started := time.Now()
		if err := r.setup(ctx, filepath.Join(tmp, fmt.Sprintf("fleet%d", k))); err != nil {
			r.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(started))
	}
	defer r.teardown()
	if err := r.buildOracle(); err != nil {
		return nil, err
	}

	// Warm-up, discarded. Stateless traffic runs the open loop's schedule.
	// Sessions are fed round-robin until each has taken its first relearn,
	// at a quarter window, so the open loop meets them in their steady state
	// rather than in a start-up burst of relearns that lands at a different
	// point of the phase for every rate and machine.
	send, _ := r.sender(phaseWarm, openSet, false)
	if r.spec.kind == sessionAssign {
		n := sessionsInSet * sessionWindow / 4
		r.count(n, fixedLoop(ctx, n, senders, send))
	} else {
		warmRes := openLoop(ctx, r.spec.rate, warm, senders, 1, send)
		r.count(len(warmRes.lat), warmRes.failed)
	}

	var before map[string]float64
	var mem0 runtime.MemStats
	if opt.trace {
		if before, err = scrape(ctx, r.hc, r.fleet.gwAddr); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem0)
	}
	send, openSenders := r.sender(phaseOpen, openSet, opt.trace)
	openRes := openLoop(ctx, r.spec.rate, open, senders, openWindows, send)
	r.count(len(openRes.lat), openRes.failed)
	if n := len(openRes.lat); n > 0 && float64(openRes.late)/float64(n) > 0.01 {
		r.res.note("open loop INVALID: %d of %d sends left more than %v past due", openRes.late, n, lateAfter)
	}

	if opt.trace {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		after, err := scrape(ctx, r.hc, r.fleet.gwAddr)
		if err != nil {
			return nil, err
		}
		if err := r.reportTraced(openRes, openSenders, before, after, mem0, mem1); err != nil {
			return nil, err
		}
	} else {
		send, _ := r.sender(phaseClosed, closedSet, false)
		closedRes := closedLoop(ctx, closed, senders, closedWindows, send)
		r.count(closedRes.attempted, closedRes.failed)
		r.reportUntraced(openRes, closedRes, setups)
	}
	if err := r.checkProbe(); err != nil {
		return nil, err
	}
	if n := r.mismatches(); n > 0 {
		r.res.fail("%d stateless answers differ from the in-process Snapshot.Assign", n)
	}
	return r.res, nil
}

func newEpochs() []int {
	e := make([]int, sessionsInSet)
	for i := range e {
		e[i] = -1
	}
	return e
}

func (r *servingRun) count(attempted, failed int) {
	r.res.Attempted += int64(attempted)
	r.res.Failed += int64(failed)
}

// setup trains and saves the served model, boots the fleet, loads the model
// on every backend, and creates the sessions.
func (r *servingRun) setup(ctx context.Context, stateDir string) error {
	var err error
	if r.ds, r.trained, err = trainServed(r.opt.seed, r.modelPath); err != nil {
		return err
	}
	r.fleet, err = bootFleet(fleetConfig{
		backends:  r.spec.backends,
		replicate: r.spec.replicate,
		stateDir:  stateDir,
		models:    map[string]string{modelName: r.modelPath},
		tr:        r.tr,
	})
	if err != nil {
		return err
	}
	var opts []client.Option
	if r.spec.kind == frameAssign {
		opts = append(opts, client.WithBinary())
	}
	r.cl, r.hc, r.loadTr = r.fleet.newClient(r.tr, opts...)
	if r.spec.kind == sessionAssign {
		for _, set := range []string{openSet, closedSet} {
			for i := 0; i < sessionsInSet; i++ {
				if err := r.cl.CreateSession(ctx, sessionID(set, i), modelName, client.SessionConfig{Window: sessionWindow}); err != nil {
					return fmt.Errorf("create session: %w", err)
				}
			}
		}
	}
	return nil
}

func (r *servingRun) teardown() {
	if r.fleet != nil {
		r.fleet.close()
		r.fleet = nil
	}
	if r.loadTr != nil {
		r.loadTr.CloseIdleConnections()
		r.loadTr = nil
	}
}

func sessionID(set string, i int) string { return fmt.Sprintf("%s-%02d", set, i) }

// buildOracle draws the traffic pool and answers every pool row in process,
// against the snapshot the fleet serves.
func (r *servingRun) buildOracle() error {
	r.pool = trafficPool(r.opt.seed)
	snap, err := model.LoadFile(r.modelPath)
	if err != nil {
		return err
	}
	r.expect = make([]expected, len(r.pool))
	for i, row := range r.pool {
		a, err := snap.Assign(row)
		if err != nil {
			return err
		}
		r.expect[i] = expected{cluster: a.Cluster, sim: math.Float64bits(a.Similarity)}
	}
	return nil
}

// Phases, as they appear in request ids.
const (
	phaseWarm   = 'w'
	phaseOpen   = 'o'
	phaseClosed = 'c'
)

// senderState is one sender's private scratch and tallies.
type senderState struct {
	rng        *rand.Rand
	idx        []int
	rows       [][]int
	mismatches int
	answers    int // session answers
	advanced   int // session answers whose model epoch advanced
}

// sender builds the send function of one phase. Each sender draws its rows
// from the pool, and for sessions one of its own half of the set (sessions
// whose index has its parity), with a per-(seed, phase, sender) generator,
// so every session is fed by one sender in a fixed order. Drawing sessions
// at random keeps them from relearning in lockstep; only the warm-up goes
// round-robin, to give every session the same number of rows. On traced
// runs every other pair of requests is traced.
func (r *servingRun) sender(phase byte, set string, traced bool) (sendFunc, []*senderState) {
	sts := make([]*senderState, senders)
	for s := range sts {
		sts[s] = &senderState{
			rng:  rand.New(rand.NewSource(r.opt.seed*1_000_003 + int64(phase)*1_009 + int64(s))),
			idx:  make([]int, r.spec.rows),
			rows: make([][]int, r.spec.rows),
		}
	}
	epochs := r.lastEpoch[set]
	send := func(ctx context.Context, s, i int, due time.Time) (int, error) {
		st := sts[s]
		for j := range st.idx {
			st.idx[j] = st.rng.Intn(len(r.pool))
			st.rows[j] = r.pool[st.idx[j]]
		}
		prefix := "u-"
		if traced && (i/2)%2 == 0 {
			prefix = "t-"
		}
		id := prefix + string(phase) + "-" + strconv.Itoa(i)
		rctx := client.WithRequestID(ctx, id)
		session := -1
		if r.spec.kind == sessionAssign {
			k := i / senders % (sessionsInSet / senders)
			if phase != phaseWarm {
				k = st.rng.Intn(sessionsInSet / senders)
			}
			session = s + senders*k
		}
		start := time.Now()
		var as []client.Assignment
		var err error
		switch r.spec.kind {
		case frameAssign:
			as, err = r.cl.AssignMany(rctx, modelName, st.rows)
		case jsonBatch:
			as, err = r.cl.AssignBatch(rctx, modelName, st.rows)
		case sessionAssign:
			var a client.Assignment
			a, err = r.cl.AssignSession(rctx, sessionID(set, session), st.rows[0])
			as = []client.Assignment{a}
		}
		end := time.Now()
		if r.tr != nil && isTraced(id) {
			sp := span{kind: spanClient, id: id, due: int64(due.Sub(r.tr.epoch)),
				start: int64(start.Sub(r.tr.epoch)), end: int64(end.Sub(r.tr.epoch))}
			if session >= 0 {
				sp.at = sessionID(set, session)
			}
			r.tr.add(sp)
		}
		if err != nil {
			return 0, err
		}
		if session >= 0 {
			a := as[0]
			st.answers++
			if epochs[session] >= 0 && a.Epoch > epochs[session] {
				st.advanced++
			}
			epochs[session] = a.Epoch
			if set == openSet && session == 0 {
				r.probe = append(r.probe, probeStep{row: st.idx[0], cluster: a.Cluster, sim: math.Float64bits(a.Similarity), epoch: a.Epoch})
			}
			return 1, nil
		}
		if len(as) != len(st.idx) {
			st.mismatches += len(st.idx)
			return 0, fmt.Errorf("%d answers for %d rows", len(as), len(st.idx))
		}
		for j, a := range as {
			e := r.expect[st.idx[j]]
			if a.Cluster != e.cluster || math.Float64bits(a.Similarity) != e.sim || a.Epoch != 0 {
				st.mismatches++
			}
		}
		return len(as), nil
	}
	r.senderLog = append(r.senderLog, sts...)
	return send, sts
}

func (r *servingRun) mismatches() int {
	n := 0
	for _, st := range r.senderLog {
		n += st.mismatches
	}
	return n
}

// checkProbe replays the probe session's rows against a solo replicated
// daemon driven in process through Handler(), and requires the fleet's
// answers to match it value for value: cluster, similarity bits, and epoch
// (the JSON bodies are then byte-identical, since both sides encode the
// same values with the same encoder). This is the fleet failover contract:
// a replicated fleet answers like one replicated daemon.
func (r *servingRun) checkProbe() error {
	if r.spec.kind != sessionAssign {
		return nil
	}
	if len(r.probe) == 0 {
		r.res.fail("probe session %s received no rows", sessionID(openSet, 0))
		return nil
	}
	srv, err := server.New(backendConfig(true, filepath.Join(r.tmp, "reference")))
	if err != nil {
		return err
	}
	defer srv.Close()
	if _, _, err := srv.LoadModelFile(modelName, r.modelPath); err != nil {
		return err
	}
	h := srv.Handler()
	id := sessionID(openSet, 0)
	body, _ := json.Marshal(map[string]any{"session": id, "model": modelName, "window": sessionWindow})
	if rec := serveJSON(h, "/v1/sessions", body); rec.Code != http.StatusCreated {
		return fmt.Errorf("reference session: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	for step, p := range r.probe {
		body, _ := json.Marshal(map[string]any{"session": id, "row": r.pool[p.row]})
		rec := serveJSON(h, "/v1/assign", body)
		var a client.Assignment
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &a) != nil {
			return fmt.Errorf("reference assign: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		if a.Cluster != p.cluster || math.Float64bits(a.Similarity) != p.sim || a.Epoch != p.epoch {
			r.res.fail("session %s answer %d differs from a solo replicated daemon: fleet (%d, %v, epoch %d), solo (%d, %v, epoch %d)",
				id, step, p.cluster, math.Float64frombits(p.sim), p.epoch, a.Cluster, a.Similarity, a.Epoch)
			return nil
		}
	}
	return nil
}

// serveJSON runs one JSON request through a handler in process.
func serveJSON(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// scrape reads the fleet-wide /v1/metrics of the gateway at addr into
// series → value.
func scrape(ctx context.Context, hc *http.Client, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			series[line[:sp]] += v
		}
	}
	return series, sc.Err()
}

// family sums every series of one metric family (all label sets).
func family(series map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *servingRun) reportUntraced(openRes openLoopResult, closedRes closedLoopResult, setups []time.Duration) {
	res := r.res
	rps := closedRes.rowsPerSecond()
	res.set("rows_per_s", rps)
	res.set("cpu_us_per_row", us(closedRes.cpuPerRow()))
	openQuiet := quietWindows(openRes.marks, openRes.window)
	res.setWindowedQuantile("p50_ms", openRes.lat, 0.50, openQuiet, false)
	res.setWindowedQuantile("p90_ms", openRes.lat, 0.90, openQuiet, true)
	lat := sortedCopy(openRes.lat)
	res.diagQuantile("p99_ms", lat, 0.99)
	res.diagQuantile("p999_ms", lat, 0.999)
	res.set("ok_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	res.set("setup_s", medianDur(setups).Seconds())
	acc, err := mcdc.Accuracy(r.ds.Labels, r.trained.Labels)
	if err != nil {
		res.fail("accuracy: %v", err)
	}
	res.set("acc_mean", acc)
	res.diag("open_load_pct", 100*r.spec.rate*float64(r.spec.rows)/rps, "%")
	res.diag("late_share", ratio(float64(openRes.late), float64(len(openRes.lat))), "ratio")
	res.diag("queued_share", ratio(float64(openRes.queued), float64(len(openRes.lat))), "ratio")
	res.diag("open_steal_pct", 100*stealShare(openRes.marks, openRes.window), "%")
	res.diag("closed_steal_pct", 100*stealShare(closedRes.marks, closedRes.window), "%")
}

// reportTraced derives the per-layer metrics from the traced open loop, the
// fleet's counters, and the in-process ladder, and writes the trace file.
func (r *servingRun) reportTraced(openRes openLoopResult, sts []*senderState,
	before, after map[string]float64, mem0, mem1 runtime.MemStats) error {
	res := r.res
	spans, dropped := r.tr.snapshot()
	parents, paths, unlinked := linkTrace(spans)
	if unlinked > 0 || dropped > 0 {
		res.note("%d traced requests not fully linked, %d spans dropped", unlinked, dropped)
	}
	ship, err := setPathMetrics(res, paths)
	if err != nil {
		return err
	}

	// The traced and untraced halves of the same open loop.
	var on, off []time.Duration
	for i, d := range openRes.lat {
		if (i/2)%2 == 0 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	p50on, _ := quantile(sortedCopy(on), 0.5)
	p50off, _ := quantile(sortedCopy(off), 0.5)
	res.set("trace_overhead_pct", 100*(float64(p50on)/float64(p50off)-1))
	res.set("loadgen.late_share", ratio(float64(openRes.late), float64(len(openRes.lat))))

	delta := func(name string) float64 { return family(after, name) - family(before, name) }
	res.set("gateway.retries", delta("mcdcd_gateway_retries_total"))
	if r.spec.kind == sessionAssign {
		// The session and replication layers exist on this workload only,
		// so they are printed here and stay out of the summary line.
		res.diag("replication.ship_us", ship, "us")
		ckptSum := after[`mcdcd_stage_duration_seconds_sum{stage="checkpoint"}`] - before[`mcdcd_stage_duration_seconds_sum{stage="checkpoint"}`]
		ckptCount := after[`mcdcd_stage_duration_seconds_count{stage="checkpoint"}`] - before[`mcdcd_stage_duration_seconds_count{stage="checkpoint"}`]
		res.diag("sessions.checkpoint_us", 1e6*ratio(ckptSum, ckptCount), "us")
		res.diag("replication.ships_per_assign", ratio(delta("mcdcd_replica_ships_total"), delta("mcdcd_assign_total")), "ratio")
		res.diag("replication.ship_failures", delta("mcdcd_replica_ship_failures_total"), "count")
		var shipBytes, ships float64
		for i, s := range spans {
			if s.kind == spanShip && parents[i] >= 0 {
				shipBytes += float64(s.bytes)
				ships++
			}
		}
		res.diag("replication.ship_bytes", ratio(shipBytes, ships), "B")
		answers, advanced := 0, 0
		for _, st := range sts {
			answers += st.answers
			advanced += st.advanced
		}
		res.diag("sessions.relearn_share", ratio(float64(advanced), float64(answers)), "ratio")
	}
	res.set("runtime.alloc_bytes_per_row", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(openRes.rows)))
	res.set("runtime.gc_per_krow", ratio(float64(mem1.NumGC-mem0.NumGC), float64(openRes.rows)/1000))

	if err := r.reportLearning(); err != nil {
		return err
	}
	if err := runLadder(res, r.modelPath, r.pool, ladderBudget(r.opt)); err != nil {
		return err
	}
	path := filepath.Join(r.opt.out, res.Workload+".trace.json")
	if err := writeTrace(path, res.Workload, r.tr.epoch, spans, parents, dropped); err != nil {
		return err
	}
	res.note("trace written to %s (%d spans)", path, len(spans))
	return nil
}

// reportLearning times how the served model is learned and frozen: the
// staged MGCPL → CAME path (which must reproduce mcdc.Cluster's labels),
// then snapshot build, save, and load.
func (r *servingRun) reportLearning() error {
	st, err := stagedCluster(r.ds, clusters, r.tmp)
	if err != nil {
		return err
	}
	if !slices.Equal(st.labels, r.trained.Labels) {
		r.res.fail("staged MGCPL → CAME labels differ from mcdc.Cluster's")
	}
	r.res.set("core.mgcpl_s", st.stage(0).Seconds())
	r.res.set("core.came_s", st.stage(1).Seconds())
	r.res.set("core.levels", float64(st.levels))
	var build, save, load []time.Duration
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		m, err := r.trained.Model()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := m.Save(r.modelPath); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := mcdc.LoadModel(r.modelPath); err != nil {
			return err
		}
		build, save, load = append(build, t1.Sub(t0)), append(save, t2.Sub(t1)), append(load, time.Since(t2))
	}
	fi, err := os.Stat(r.modelPath)
	if err != nil {
		return err
	}
	r.res.set("model.build_ms", ms(medianDur(build)))
	r.res.set("model.save_ms", ms(medianDur(save)))
	r.res.set("model.load_ms", ms(medianDur(load)))
	r.res.set("model.snapshot_bytes", float64(fi.Size()))
	return nil
}
