package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcdc/internal/hashring"
)

// gatewayFleet boots n backend daemons serving the same snapshot plus a
// gateway over them, returning the gateway test server, the backends, and
// their test servers.
func gatewayFleet(t *testing.T, n int, cfg Config) (*Gateway, *httptest.Server, []*Server, []*httptest.Server) {
	return gatewayFleetCfg(t, n, cfg, GatewayConfig{})
}

// gatewayFleetCfg is gatewayFleet with an explicit gateway config. When the
// backend config asks for replication, each backend gets its own state dir
// and the fleet membership is wired up once the listener addresses are known.
func gatewayFleetCfg(t *testing.T, n int, cfg Config, gcfg GatewayConfig) (*Gateway, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range backends {
		bc := cfg
		if bc.Replicate && bc.StateDir == "" {
			bc.StateDir = t.TempDir()
		}
		backends[i], tss[i] = newTestServer(t, bc)
		addrs[i] = strings.TrimPrefix(tss[i].URL, "http://")
	}
	if cfg.Replicate {
		for i := range backends {
			backends[i].ConfigureReplication(addrs[i], addrs, gcfg.FleetSecret)
		}
	}
	gcfg.Backends = addrs
	gw, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { gts.Close(); gw.Close() })
	return gw, gts, backends, tss
}

// TestGatewayByteIdenticalToSingleBackend pins the tentpole acceptance
// criterion: a 2-backend gateway answers /assign and /assign/batch with the
// exact bytes a single backend produces for the same requests.
func TestGatewayByteIdenticalToSingleBackend(t *testing.T) {
	snap, rows, _ := trainModel(t, 300, 8, 3, 51)
	_, gts, backends, _ := gatewayFleet(t, 2, Config{})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	// Single assignments: routed by row key, answered verbatim.
	for i, row := range rows[:60] {
		body := map[string]any{"model": "m", "row": row}
		gresp, gdata := post(t, gts.URL+"/v1/assign", body)
		sresp, sdata := post(t, soloTS.URL+"/v1/assign", body)
		if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
			t.Fatalf("row %d: gateway %d, solo %d (%s | %s)", i, gresp.StatusCode, sresp.StatusCode, gdata, sdata)
		}
		if string(gdata) != string(sdata) {
			t.Fatalf("row %d: gateway %q != solo %q", i, gdata, sdata)
		}
	}

	// Batch: scattered by row key across both backends, gathered in order.
	body := map[string]any{"model": "m", "rows": rows}
	gresp, gdata := post(t, gts.URL+"/v1/assign/batch", body)
	sresp, sdata := post(t, soloTS.URL+"/v1/assign/batch", body)
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("batch: gateway %d, solo %d", gresp.StatusCode, sresp.StatusCode)
	}
	if string(gdata) != string(sdata) {
		t.Fatal("gateway batch response is not byte-identical to the single backend")
	}
	// The scatter really used both backends (row diversity guarantees it at
	// this size — otherwise the test silently degrades to a proxy check).
	spread := 0
	for _, b := range backends {
		sm, ok := b.registry.get("m")
		if ok && sm.buf.len() > 0 {
			spread++
		}
	}
	if spread != 2 {
		t.Fatalf("batch traffic reached %d/2 backends", spread)
	}
}

// TestGatewaySessionLifecycleAndPlacement drives a session's whole life
// through the gateway and checks it lives on exactly the backend /ring
// predicts, with responses byte-identical to a solo daemon fed the same
// stream.
func TestGatewaySessionLifecycleAndPlacement(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 53)
	_, gts, backends, tss := gatewayFleet(t, 2, Config{})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	createSession(t, gts.URL, "sess-1", 40, 17)
	createSession(t, soloTS.URL, "sess-1", 40, 17)
	gtail := feedSession(t, gts.URL, "sess-1", rows, 0, 100)
	stail := feedSession(t, soloTS.URL, "sess-1", rows, 0, 100)
	for i := range gtail {
		if gtail[i] != stail[i] {
			t.Fatalf("session arrival %d: gateway %q != solo %q", i, gtail[i], stail[i])
		}
	}

	// /ring names the owner; the session must be resident there and only
	// there.
	_, data := get(t, gts.URL+"/v1/ring?session=sess-1")
	var ring struct {
		Backend  string   `json:"backend"`
		Backends []string `json:"backends"`
	}
	if err := json.Unmarshal(data, &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Backends) != 2 || ring.Backend == "" {
		t.Fatalf("ring info: %s", data)
	}
	owner := ring.Backend
	for i, ts := range tss {
		addr := strings.TrimPrefix(ts.URL, "http://")
		want := 0
		if addr == owner {
			want = 1
		}
		if got := backends[i].sessions.count(); got != want {
			t.Errorf("backend %s holds %d sessions, want %d", addr, got, want)
		}
	}

	// Duplicate create through the gateway conflicts like a direct one.
	resp, _ := post(t, gts.URL+"/v1/sessions", map[string]any{"session": "sess-1", "model": "m"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create through gateway: %d", resp.StatusCode)
	}
	// Delete routes to the owner.
	req, _ := http.NewRequest(http.MethodDelete, gts.URL+"/v1/sessions/sess-1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete through gateway: %d", dresp.StatusCode)
	}
	for i := range backends {
		if got := backends[i].sessions.count(); got != 0 {
			t.Errorf("backend %d still holds %d sessions after delete", i, got)
		}
	}
}

// TestGatewayBroadcastAndAggregation covers the fleet-wide endpoints:
// POST /models reaches every backend (201 on first load), /healthz reports
// per-backend state, and /metrics sums the fleet's counters.
func TestGatewayBroadcastAndAggregation(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 57)
	_, gts, backends, tss := gatewayFleet(t, 2, Config{})
	path := t.TempDir() + "/m.bin"
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, gts.URL+"/v1/models", map[string]string{"name": "m", "path": path})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("broadcast load: %d %s", resp.StatusCode, data)
	}
	for i, b := range backends {
		if _, ok := b.registry.get("m"); !ok {
			t.Fatalf("backend %d did not receive the broadcast model", i)
		}
	}

	// Traffic through the gateway lands on both backends; the aggregated
	// counter equals the sum.
	for _, row := range rows[:40] {
		resp, data := post(t, gts.URL+"/v1/assign", map[string]any{"model": "m", "row": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign: %d %s", resp.StatusCode, data)
		}
	}
	var want int64
	for _, b := range backends {
		want += b.metrics.assignTotal.Load()
	}
	if want != 40 {
		t.Fatalf("backends served %d assigns in total, want 40", want)
	}
	_, mdata := get(t, gts.URL+"/v1/metrics")
	if !strings.Contains(string(mdata), fmt.Sprintf("mcdcd_assign_total %d", want)) {
		t.Errorf("aggregated metrics missing summed mcdcd_assign_total %d:\n%s", want, mdata)
	}
	if !strings.Contains(string(mdata), `mcdcd_gateway_backend_up{backend=`) {
		t.Error("gateway metrics missing per-backend up gauge")
	}
	if !strings.Contains(string(mdata), `mcdcd_gateway_http_requests_total{endpoint="POST /v1/assign"} 40`) {
		t.Error("gateway metrics missing canonical v1-labeled per-endpoint request counter")
	}

	// Healthz: all up → ok. One backend down with NO replication anywhere →
	// "down" + 503: its sessions are stranded until it returns. Stateless
	// traffic still serves — rows re-place onto the survivor once the first
	// failure marks the dead backend down.
	hresp, hdata := get(t, gts.URL+"/v1/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hdata), `"status":"ok"`) {
		t.Fatalf("healthz all-up: %d %s", hresp.StatusCode, hdata)
	}
	tss[1].Close()
	hresp, hdata = get(t, gts.URL+"/v1/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hdata), `"status":"down"`) {
		t.Fatalf("healthz with a dead unreplicated backend: %d %s", hresp.StatusCode, hdata)
	}
	for i, row := range rows[:40] {
		resp, data := post(t, gts.URL+"/v1/assign", map[string]any{"model": "m", "row": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stateless assign %d with dead backend: %d %s", i, resp.StatusCode, data)
		}
	}
	// The reroute shows up in the gateway's own counters.
	_, mdata = get(t, gts.URL+"/v1/metrics")
	if !strings.Contains(string(mdata), "mcdcd_gateway_retries_total{backend=") {
		t.Errorf("gateway metrics missing per-backend retry counter:\n%s", mdata)
	}
}

// TestGatewaySessionFailoverByteIdentical is the robustness acceptance
// property: in a replicated fleet, killing a session's owner mid-stream
// loses nothing — the gateway promotes the replica, reroutes, and the
// session's full answer stream is byte-identical to an uninterrupted
// in-memory daemon that never checkpoints. The fleet also reports
// "degraded" (not "down", not 503) while the dead backend is covered.
func TestGatewaySessionFailoverByteIdentical(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 61)
	gw, gts, backends, tss := gatewayFleetCfg(t, 3, Config{Replicate: true},
		GatewayConfig{Timeout: 2 * time.Second, RetryBackoff: 2 * time.Millisecond, FleetSecret: "hunter2"})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	// The reference run: one in-memory daemon that never checkpoints.
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	createSession(t, gts.URL, "sf", 40, 17)
	createSession(t, soloTS.URL, "sf", 40, 17)
	head := feedSession(t, gts.URL, "sf", rows, 0, 60)
	soloHead := feedSession(t, soloTS.URL, "sf", rows, 0, 60)
	for i := range head {
		if head[i] != soloHead[i] {
			t.Fatalf("pre-failure arrival %d: gateway %q != solo %q", i, head[i], soloHead[i])
		}
	}

	// Kill the owner.
	_, data := get(t, gts.URL+"/v1/ring?session=sf")
	var ring struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(data, &ring); err != nil {
		t.Fatal(err)
	}
	killed := false
	for i, ts := range tss {
		if strings.TrimPrefix(ts.URL, "http://") == ring.Backend {
			ts.Close()
			backends[i].Close()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("owner %q not among fleet", ring.Backend)
	}

	// The stream continues through the gateway without a single failure, and
	// the tail matches the uninterrupted run bit for bit.
	tail := feedSession(t, gts.URL, "sf", rows, 60, 120)
	soloTail := feedSession(t, soloTS.URL, "sf", rows, 60, 120)
	for i := range tail {
		if tail[i] != soloTail[i] {
			t.Fatalf("post-failover arrival %d: gateway %q != solo %q", i, tail[i], soloTail[i])
		}
	}
	if gw.failovers.Load() < 1 {
		t.Fatalf("failovers counter = %d, want >= 1", gw.failovers.Load())
	}

	// Degraded, not down: the dead backend is covered by replication.
	hresp, hdata := get(t, gts.URL+"/v1/healthz")
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(hdata), `"status":"degraded"`) {
		t.Fatalf("healthz with covered dead backend: %d %s", hresp.StatusCode, hdata)
	}
	// And the failover is visible in /metrics.
	_, mdata := get(t, gts.URL+"/v1/metrics")
	if !strings.Contains(string(mdata), "mcdcd_gateway_failovers_total") {
		t.Errorf("gateway metrics missing failovers counter:\n%s", mdata)
	}
}

// TestReplicaOnNextFailoverCandidate pins where a replicated session's
// checkpoint lands: on the second backend of the gateway's ring chain for
// the session, which is where a failover first asks to promote when the
// owner is lost. Sixteen sessions make a replica holder chosen by any other
// ring key miss that backend for some session on practically every set of
// test ports. The replicators always place replicas on rings of
// hashring.DefaultReplicas points per backend, so a gateway built with any
// other count would read other chains, and it is refused.
func TestReplicaOnNextFailoverCandidate(t *testing.T) {
	for _, n := range []int{16, -1, hashring.DefaultReplicas + 1} {
		if _, err := NewGateway(GatewayConfig{Backends: []string{"127.0.0.1:1"}, Replicas: n}); err == nil {
			t.Errorf("gateway accepted %d ring points per backend; its failover chains would miss the replicas", n)
		}
	}
	gw128, err := NewGateway(GatewayConfig{Backends: []string{"127.0.0.1:1"}, Replicas: hashring.DefaultReplicas})
	if err != nil {
		t.Fatalf("gateway refused the replicators' own ring point count: %v", err)
	}
	gw128.Close()

	snap, rows, _ := trainModel(t, 200, 6, 3, 63)
	gw, gts, backends, tss := gatewayFleetCfg(t, 3, Config{Replicate: true}, GatewayConfig{})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = "sess-" + strconv.Itoa(i)
		createSession(t, gts.URL, ids[i], 40, int64(i+1))
		feedSession(t, gts.URL, ids[i], rows, i, i+1)
	}
	held := make(map[string]map[string]bool) // backend → replica ids it holds
	for _, ts := range tss {
		_, data := get(t, ts.URL+"/v1/sessions")
		var inv struct {
			Replicas []string `json:"replicas"`
		}
		if err := json.Unmarshal(data, &inv); err != nil {
			t.Fatal(err)
		}
		addr := strings.TrimPrefix(ts.URL, "http://")
		held[addr] = make(map[string]bool)
		for _, id := range inv.Replicas {
			held[addr][id] = true
		}
	}
	for _, id := range ids {
		chain := gw.sessionCandidates(id)
		if len(chain) != 3 {
			t.Fatalf("%s: chain %v, want 3 backends", id, chain)
		}
		if !held[chain[1]][id] {
			t.Errorf("%s: replica not on %s, the next failover candidate after owner %s (chain %v)", id, chain[1], chain[0], chain)
		}
	}
}

// TestGatewayRingLeaveDrainsSessions exercises live membership: draining a
// healthy backend migrates its sessions to the shrunken ring's owners and
// the streams continue byte-identically; joining it back migrates them home.
func TestGatewayRingLeaveJoinMigratesSessions(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 67)
	_, gts, backends, tss := gatewayFleetCfg(t, 3, Config{Replicate: true},
		GatewayConfig{Timeout: 2 * time.Second, RetryBackoff: 2 * time.Millisecond})
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}

	ids := []string{"drain-a", "drain-b", "drain-c"}
	for _, id := range ids {
		createSession(t, gts.URL, id, 40, int64(7+len(id)))
		createSession(t, soloTS.URL, id, 40, int64(7+len(id)))
	}
	heads := make(map[string][]string)
	for _, id := range ids {
		heads[id] = feedSession(t, gts.URL, id, rows, 0, 30)
		soloHead := feedSession(t, soloTS.URL, id, rows, 0, 30)
		for i := range heads[id] {
			if heads[id][i] != soloHead[i] {
				t.Fatalf("session %s arrival %d diverged before drain", id, i)
			}
		}
	}

	// Drain backend 0 (live leave): its sessions migrate, placement cuts over.
	leaving := strings.TrimPrefix(tss[0].URL, "http://")
	resp, data := post(t, gts.URL+"/v1/ring/leave", map[string]string{"backend": leaving})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring leave: %d %s", resp.StatusCode, data)
	}
	if n := backends[0].sessions.count(); n != 0 {
		t.Fatalf("drained backend still resident with %d sessions", n)
	}
	for _, id := range ids {
		tail := feedSession(t, gts.URL, id, rows, 30, 60)
		soloTail := feedSession(t, soloTS.URL, id, rows, 30, 60)
		for i := range tail {
			if tail[i] != soloTail[i] {
				t.Fatalf("session %s arrival %d diverged after drain", id, i)
			}
		}
	}

	// Join it back: sessions whose home is the returning backend migrate
	// there, and the streams still continue seamlessly.
	resp, data = post(t, gts.URL+"/v1/ring/join", map[string]string{"backend": leaving})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring join: %d %s", resp.StatusCode, data)
	}
	for _, id := range ids {
		tail := feedSession(t, gts.URL, id, rows, 60, 90)
		soloTail := feedSession(t, soloTS.URL, id, rows, 60, 90)
		for i := range tail {
			if tail[i] != soloTail[i] {
				t.Fatalf("session %s arrival %d diverged after re-join", id, i)
			}
		}
	}
}

// TestGatewayHealthLoopFlipsUpState exercises the background checker: a
// backend that dies is marked down within a few probe periods.
func TestGatewayHealthLoopFlipsUpState(t *testing.T) {
	_, ts1 := newTestServer(t, Config{})
	addr := strings.TrimPrefix(ts1.URL, "http://")
	gw, err := NewGateway(GatewayConfig{Backends: []string{addr}, HealthEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !gw.isUp(addr) {
		if time.Now().After(deadline) {
			t.Fatal("live backend never marked up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	for gw.isUp(addr) {
		if time.Now().After(deadline) {
			t.Fatal("dead backend never marked down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayRejectsEmptyBackendList(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{Backends: []string{" ", ""}}); err == nil {
		t.Fatal("gateway accepted an empty backend list")
	}
}

// TestAggregateMetrics pins the series-summing rules on a crafted pair of
// expositions: counters sum, labels separate series, HELP/TYPE survive once,
// float formatting is preserved.
func TestAggregateMetrics(t *testing.T) {
	a := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n" +
		"x_by{k=\"a\"} 1\n" +
		"# HELP lat_seconds Latency.\n# TYPE lat_seconds summary\nlat_seconds_sum 0.5\nlat_seconds_count 2\n" +
		"mcdcd_model_epoch{model=\"m\"} 2\nmcdcd_uptime_seconds 100.5\n"
	b := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 4\n" +
		"x_by{k=\"b\"} 2\nlat_seconds_sum 0.25\nlat_seconds_count 1\n" +
		"mcdcd_model_epoch{model=\"m\"} 2\nmcdcd_uptime_seconds 40.25\n"
	out := string(aggregateMetrics([][]byte{[]byte(a), []byte(b)}, nil))
	for _, want := range []string{
		"x_total 7\n",
		`x_by{k="a"} 1`,
		`x_by{k="b"} 2`,
		"lat_seconds_sum 0.75\n",
		"lat_seconds_count 3\n",
		// Summary metadata is registered under the base family name but the
		// samples carry _sum/_count suffixes; it must survive aggregation.
		"# TYPE lat_seconds summary",
		"# HELP x_total Things.",
		// Fleet-identical gauges take the max, not a fabricated sum.
		`mcdcd_model_epoch{model="m"} 2` + "\n",
		"mcdcd_uptime_seconds 100.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregate missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# HELP x_total") != 1 {
		t.Errorf("HELP duplicated:\n%s", out)
	}
}

// TestAggregateMetricsHistograms pins bucket-by-bucket histogram merging:
// backends emit byte-identical le labels (precomputed in histLe), so the
// gateway sums each bucket as an ordinary labeled series, and _sum/_count
// stay consistent with the merged buckets.
func TestAggregateMetricsHistograms(t *testing.T) {
	var ha, hb histogram
	ha.observe(150 * time.Microsecond) // bin le=0.0002
	ha.observe(3 * time.Millisecond)
	hb.observe(150 * time.Microsecond)
	hb.observe(40 * time.Millisecond)
	hb.observe(40 * time.Millisecond)
	render := func(h *histogram) []byte {
		var buf bytes.Buffer
		buf.WriteString("# HELP lat_seconds L.\n# TYPE lat_seconds histogram\n")
		h.writeTo(&buf, "lat_seconds", "")
		return buf.Bytes()
	}
	out := string(aggregateMetrics([][]byte{render(&ha), render(&hb)}, nil))

	// Every bucket of the merged output must equal the sum of the two
	// backends' buckets, cumulative and monotone, with +Inf == _count.
	wantCount := ha.count() + hb.count()
	var lastLe float64
	var lastCum, infCum int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket{le=\"") {
			continue
		}
		rest := strings.TrimPrefix(line, "lat_seconds_bucket{le=\"")
		leStr, valStr, ok := strings.Cut(rest, "\"} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		cum, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", line, err)
		}
		if cum < lastCum && leStr != "+Inf" {
			t.Errorf("bucket counts not monotone at le=%s: %d < %d", leStr, cum, lastCum)
		}
		if leStr == "+Inf" {
			infCum = cum
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("le label %q: %v", line, err)
		}
		if le <= lastLe {
			t.Errorf("le bounds not increasing: %g after %g", le, lastLe)
		}
		lastLe, lastCum = le, cum
	}
	if infCum != wantCount {
		t.Errorf("+Inf bucket %d != total observations %d\n%s", infCum, wantCount, out)
	}
	if !strings.Contains(out, fmt.Sprintf("lat_seconds_count %d\n", wantCount)) {
		t.Errorf("merged _count != %d:\n%s", wantCount, out)
	}
	// Spot-check one shared bucket actually summed: both backends saw 150µs,
	// so the first nonzero bucket holds 2.
	if !strings.Contains(out, `lat_seconds_bucket{le="0.0002"} 2`) {
		t.Errorf("shared 150µs bucket did not merge to 2:\n%s", out)
	}
}

// TestAggregateMetricsPerBackendGauges pins the gauge bugfix: point-in-time
// gauges like queue depth must not be summed into a meaningless fleet total —
// each backend's sample survives under a backend label instead.
func TestAggregateMetricsPerBackendGauges(t *testing.T) {
	a := "# HELP mcdcd_queue_depth Q.\n# TYPE mcdcd_queue_depth gauge\nmcdcd_queue_depth 3\n" +
		"mcdcd_inflight 2\nmcdcd_assign_total 10\n" +
		"mcdcd_build_info{version=\"0.8.0\",go_version=\"go1.22\"} 1\n"
	b := "# HELP mcdcd_queue_depth Q.\n# TYPE mcdcd_queue_depth gauge\nmcdcd_queue_depth 5\n" +
		"mcdcd_inflight 1\nmcdcd_assign_total 4\n" +
		"mcdcd_build_info{version=\"0.8.0\",go_version=\"go1.22\"} 1\n"
	out := string(aggregateMetrics(
		[][]byte{[]byte(a), []byte(b)},
		[]string{"127.0.0.1:9001", "127.0.0.1:9002"},
	))
	for _, want := range []string{
		// Per-backend labeling instead of a sum.
		`mcdcd_queue_depth{backend="127.0.0.1:9001"} 3`,
		`mcdcd_queue_depth{backend="127.0.0.1:9002"} 5`,
		`mcdcd_inflight{backend="127.0.0.1:9001"} 2`,
		`mcdcd_inflight{backend="127.0.0.1:9002"} 1`,
		// Counters still sum.
		"mcdcd_assign_total 14\n",
		// build_info is fleet-identical: max keeps the value at 1.
		`mcdcd_build_info{version="0.8.0",go_version="go1.22"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregate missing %q:\n%s", want, out)
		}
	}
	for _, reject := range []string{
		"mcdcd_queue_depth 8", "mcdcd_inflight 3", `go_version="go1.22"} 2`,
	} {
		if strings.Contains(out, reject) {
			t.Errorf("aggregate wrongly contains %q:\n%s", reject, out)
		}
	}
}
