package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcdc/internal/hashring"
	"mcdc/internal/model"
	"mcdc/internal/testenv"
)

// Chaos suite: backends misbehave mid-traffic — killed, hung, blackholed —
// and the contract under test is absolute: every admitted request answers
// 200, and every session's answer stream stays byte-identical to an
// uninterrupted reference run. Faults are injected at the gateway's
// transport (testenv.FaultRoundTripper), so a specific backend can fail in a
// specific way without owning its process, and the suite runs under -race.

// chaosFleet boots a replicated 3-backend fleet fronted by a gateway whose
// transport is fault-injectable, plus a solo in-memory reference daemon that
// never checkpoints.
func chaosFleet(t *testing.T) (*testenv.FaultRoundTripper, *Gateway, string, []*Server, []string, string) {
	t.Helper()
	frt := testenv.NewFaultRoundTripper(nil)
	frt.HangDelay = 2 * time.Second
	gw, gts, backends, tss := gatewayFleetCfg(t, 3, Config{Replicate: true}, GatewayConfig{
		Timeout:      500 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		Transport:    frt,
		FleetSecret:  "chaos",
	})
	snap, _, _ := trainModel(t, 200, 6, 3, 71)
	for _, b := range backends {
		if err := b.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	solo, soloTS := newTestServer(t, Config{})
	if err := solo.AddModel("m", snap); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(tss))
	for i, ts := range tss {
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return frt, gw, gts.URL, backends, addrs, soloTS.URL
}

// sessionOwner asks the gateway which backend currently owns a session.
func sessionOwner(t *testing.T, gwURL, id string) string {
	t.Helper()
	_, data := get(t, gwURL+"/v1/ring?session="+id)
	var ring struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(data, &ring); err != nil {
		t.Fatal(err)
	}
	return ring.Backend
}

// TestChaosOwnerFaultsMidStream drives one session per fault kind: its owner
// is killed / hung / blackholed mid-stream, the gateway fails over to the
// replica, and the stream finishes with zero failed requests and a tail
// byte-identical to the uninterrupted reference run.
func TestChaosOwnerFaultsMidStream(t *testing.T) {
	frt, gw, gwURL, _, _, soloURL := chaosFleet(t)
	_, rows, _ := trainModel(t, 200, 6, 3, 71)

	cut, total := 25, 60
	if testenv.Nightly() {
		cut, total = 80, 200
	}
	for si, tc := range []struct {
		name string
		kind testenv.FaultKind
		feed func(t *testing.T, url, id string, rows [][]int, from, to int) []string
	}{
		{"kill", testenv.FaultKill, feedSession},
		{"hang", testenv.FaultHang, feedSession},
		{"blackhole", testenv.FaultBlackhole, feedSession},
		// One-frame binary assigns climb the same recovery ladder.
		{"kill-binary", testenv.FaultKill, feedSessionWire},
	} {
		kind, feed := tc.kind, tc.feed
		t.Run(tc.name, func(t *testing.T) {
			id := "chaos-" + tc.name
			createSession(t, gwURL, id, 40, int64(100+si))
			createSession(t, soloURL, id, 40, int64(100+si))
			head := feed(t, gwURL, id, rows, 0, cut)
			soloHead := feed(t, soloURL, id, rows, 0, cut)
			for i := range head {
				if head[i] != soloHead[i] {
					t.Fatalf("arrival %d diverged before the fault", i)
				}
			}

			owner := sessionOwner(t, gwURL, id)
			before := gw.failovers.Load()
			rule := frt.Add(&testenv.FaultRule{Host: owner, Kind: kind})
			// Either feed fails the test on any non-200: this is the
			// zero-failed-requests assertion.
			tail := feed(t, gwURL, id, rows, cut, total)
			frt.Remove(rule)
			soloTail := feed(t, soloURL, id, rows, cut, total)
			for i := range tail {
				if tail[i] != soloTail[i] {
					t.Fatalf("arrival %d diverged after the fault:\n fleet %q\n solo  %q", cut+i, tail[i], soloTail[i])
				}
			}
			if frt.Injected(kind) == 0 {
				t.Fatalf("no %s fault was actually injected", kind)
			}
			if gw.failovers.Load() <= before {
				t.Fatalf("owner fault did not trigger a failover (counter still %d)", before)
			}
		})
	}
}

// TestChaosDownOwnerGetsOneAttempt pins that the gateway spends no retry on
// a backend it already knows is down: once the health probe has marked a
// session's killed owner down, the session's next assign tries the owner
// once, fails over to the replica, and answers as the reference daemon
// does, with no retry counted against the owner.
func TestChaosDownOwnerGetsOneAttempt(t *testing.T) {
	frt, gw, gwURL, _, _, soloURL := chaosFleet(t)
	_, rows, _ := trainModel(t, 200, 6, 3, 71)
	createSession(t, gwURL, "down", 40, 5)
	createSession(t, soloURL, "down", 40, 5)
	feedSession(t, gwURL, "down", rows, 0, 10)
	feedSession(t, soloURL, "down", rows, 0, 10)

	owner := sessionOwner(t, gwURL, "down")
	rule := frt.Add(&testenv.FaultRule{Host: owner, Kind: testenv.FaultKill})
	defer frt.Remove(rule)
	gw.probeAll("")
	if gw.isUp(owner) {
		t.Fatal("the probe did not mark the killed owner down")
	}
	retries := fmt.Sprintf("mcdcd_gateway_retries_total{backend=%q}", owner)
	retriesBefore, failoversBefore := seriesValue(t, scrape(t, gwURL), retries), gw.failovers.Load()
	got := feedSession(t, gwURL, "down", rows, 10, 11) // fails the test on any non-200
	want := feedSession(t, soloURL, "down", rows, 10, 11)
	if got[0] != want[0] {
		t.Fatalf("answer after failover diverged:\n fleet %q\n solo  %q", got[0], want[0])
	}
	if n := gw.failovers.Load() - failoversBefore; n != 1 {
		t.Fatalf("%d failovers, want 1", n)
	}
	if n := seriesValue(t, scrape(t, gwURL), retries) - retriesBefore; n != 0 {
		t.Fatalf("%d retries against the owner already marked down, want 0", n)
	}
}

// TestChaosStatelessTrafficReroutes blackholes one backend under pure
// stateless load: every row still answers 200 (rows re-place along the ring
// chain) and the answers match the reference daemon byte for byte.
func TestChaosStatelessTrafficReroutes(t *testing.T) {
	frt, _, gwURL, _, addrs, soloURL := chaosFleet(t)
	_, rows, _ := trainModel(t, 200, 6, 3, 71)

	n := 40
	if testenv.Nightly() {
		n = 160
	}
	rule := frt.Add(&testenv.FaultRule{Host: addrs[1], Kind: testenv.FaultBlackhole})
	defer frt.Remove(rule)
	for i := 0; i < n; i++ {
		body := map[string]any{"model": "m", "row": rows[i%len(rows)]}
		gresp, gdata := post(t, gwURL+"/v1/assign", body)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("stateless row %d: %d %s", i, gresp.StatusCode, gdata)
		}
		sresp, sdata := post(t, soloURL+"/v1/assign", body)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("solo row %d: %d", i, sresp.StatusCode)
		}
		if string(gdata) != string(sdata) {
			t.Fatalf("stateless row %d diverged:\n fleet %q\n solo  %q", i, gdata, sdata)
		}
	}
}

// TestChaosSessionFramesInFlight pins the frame rule for a session with
// several frames in one failed sub-stream: with the session's owner
// blackholed, a stream carrying two of its frames among 19 stateless ones
// answers both session frames bad_gateway in-band — a partial apply cannot
// be ruled out, so neither is re-sent — while every stateless frame
// re-places and matches the solo answer.
func TestChaosSessionFramesInFlight(t *testing.T) {
	frt, gw, gwURL, _, _, soloURL := chaosFleet(t)
	snap, rows, _ := trainModel(t, 200, 6, 3, 71)
	createSession(t, gwURL, "inflight", 40, 7)
	createSession(t, soloURL, "inflight", 40, 7)
	owner := sessionOwner(t, gwURL, "inflight")

	// Stateless rows: one to five placed on the owner too, drawn from all
	// the training rows (65 distinct ones; which land on the owner depends
	// on the test's ports) and, should none land there, from in-domain rows
	// in order; then rows placed elsewhere, up to 19.
	placedOnOwner := func(row []int) bool {
		return gw.placement().stateless(hashring.Hash(rowKey("m", row))) == owner
	}
	var stateless [][]int
	for _, row := range rows {
		if len(stateless) < 5 && placedOnOwner(row) {
			stateless = append(stateless, row)
		}
	}
	for v := 0; len(stateless) == 0; v++ {
		row := make([]int, len(snap.Cardinalities))
		for f, rest := 0, v; f < len(row); f++ {
			row[f], rest = rest%snap.Cardinalities[f], rest/snap.Cardinalities[f]
		}
		if placedOnOwner(row) {
			stateless = append(stateless, row)
		}
	}
	onOwner := len(stateless)
	for _, row := range rows {
		if len(stateless) < 19 && !placedOnOwner(row) {
			stateless = append(stateless, row)
		}
	}
	if onOwner == 0 {
		t.Fatal("no stateless row placed on the session owner")
	}
	buf := wireStream(t)
	sessionAt := map[int]bool{4: true, 13: true}
	for i, k := 0, 0; i < 21; i++ {
		if sessionAt[i] {
			appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "", "inflight", rows[100+i]))
			continue
		}
		appendFrame(t, buf, model.FrameAssign, model.AppendAssignRequest(nil, "m", "", stateless[k]))
		k++
	}

	rule := frt.Add(&testenv.FaultRule{Host: owner, Kind: testenv.FaultBlackhole})
	gresp, gdata := postWire(t, gwURL+"/v1/assign", buf.Bytes())
	frt.Remove(rule)
	sresp, sdata := postWire(t, soloURL+"/v1/assign", buf.Bytes())
	if gresp.StatusCode != http.StatusOK || sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: gateway %d, solo %d (%s)", gresp.StatusCode, sresp.StatusCode, gdata)
	}
	got, want := readFrames(t, gdata), readFrames(t, sdata)
	if len(got) != 21 || len(want) != 21 {
		t.Fatalf("answers: gateway %d frames, solo %d, want 21", len(got), len(want))
	}
	for i := range got {
		if !sessionAt[i] {
			if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("stateless frame %d diverged from solo", i)
			}
			continue
		}
		code, msg, err := model.DecodeError(got[i].payload)
		if got[i].kind != model.FrameError || err != nil || code != codeBadGateway {
			t.Fatalf("session frame %d: kind %q code %q (%s), want in-band %s", i, got[i].kind, code, msg, codeBadGateway)
		}
	}
	if frt.Injected(testenv.FaultBlackhole) == 0 {
		t.Fatal("no blackhole fault was injected")
	}
}

// TestAdoptReplacesStaleResident pins epoch fencing at installation time: a
// daemon that kept an old copy of a session (SIGKILLed and rejoined with its
// old state dir while the session moved on elsewhere) must not shadow the
// newer incoming state when the session migrates back — and, conversely, a
// genuinely stale incoming checkpoint must not roll a newer resident back.
func TestAdoptReplacesStaleResident(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 77)
	a, ats := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
	b, bts := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir()})
	solo, soloTS := newTestServer(t, Config{})
	for _, s := range []*Server{a, b, solo} {
		if err := s.AddModel("m", snap); err != nil {
			t.Fatal(err)
		}
	}
	createSession(t, ats.URL, "mv", 40, 17)
	createSession(t, soloTS.URL, "mv", 40, 17)
	compareTail := func(url string, from, to int) {
		t.Helper()
		got := feedSession(t, url, "mv", rows, from, to)
		want := feedSession(t, soloTS.URL, "mv", rows, from, to)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arrival %d diverged:\n got  %q\n want %q", from+i, got[i], want[i])
			}
		}
	}
	fetchCkpt := func(url string) []byte {
		t.Helper()
		resp, data := get(t, url+"/v1/sessions/mv/checkpoint")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint fetch: %d %s", resp.StatusCode, data)
		}
		return data
	}
	adopt := func(url string, ckpt []byte) int64 {
		t.Helper()
		resp, err := http.Post(url+"/v1/sessions/mv/adopt", "application/octet-stream", bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("adopt: %d %s", resp.StatusCode, data)
		}
		var out struct {
			Epoch int64 `json:"epoch"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out.Epoch
	}

	compareTail(ats.URL, 0, 10)

	// Migrate mv to b (epoch 0 → 1). a's copy stays behind, live and on
	// disk — the stale-resident hazard under test.
	ckpt0 := fetchCkpt(ats.URL)
	if e := adopt(bts.URL, ckpt0); e != 1 {
		t.Fatalf("first adopt: epoch %d, want 1", e)
	}
	compareTail(bts.URL, 10, 20)

	// Migrate back to a: the incoming epoch-2 state must replace a's stale
	// epoch-0 resident, or the session would silently lose rows 10..20.
	ckpt1 := fetchCkpt(bts.URL)
	if e := adopt(ats.URL, ckpt1); e != 2 {
		t.Fatalf("migrate-back adopt: epoch %d, want 2", e)
	}
	compareTail(ats.URL, 20, 30)

	// A genuinely stale checkpoint (the original epoch-0 bytes) must not
	// roll the newer resident back.
	if e := adopt(ats.URL, ckpt0); e != 2 {
		t.Fatalf("stale adopt: epoch %d, want resident epoch 2", e)
	}
	compareTail(ats.URL, 30, 40)
}

// TestReplicaPromotionBitIdenticalTail is the property test for the
// replication layer itself, no gateway involved: a session is cut at a
// seeded-random request index by promoting its replica on the standby, the
// stream resumes there, and the tail is bit-identical to an uninterrupted
// in-memory run that never checkpoints — at Workers 1, 2, and GOMAXPROCS
// (the WithParallelism determinism contract extends through checkpoint
// shipping and promotion).
func TestReplicaPromotionBitIdenticalTail(t *testing.T) {
	snap, rows, _ := trainModel(t, 200, 6, 3, 73)
	total := 80
	if testenv.Nightly() {
		total = 200
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cut := 1 + rng.Intn(total-1)
			t.Logf("cut at request index %d of %d", cut, total)

			// Primary + standby, replication wired both ways.
			primary, pts := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir(), Workers: workers})
			standby, sts := newTestServer(t, Config{Replicate: true, StateDir: t.TempDir(), Workers: workers})
			pAddr := strings.TrimPrefix(pts.URL, "http://")
			sAddr := strings.TrimPrefix(sts.URL, "http://")
			primary.ConfigureReplication(pAddr, []string{pAddr, sAddr}, "")
			standby.ConfigureReplication(sAddr, []string{pAddr, sAddr}, "")
			solo, soloTS := newTestServer(t, Config{Workers: workers})
			for _, s := range []*Server{primary, standby, solo} {
				if err := s.AddModel("m", snap); err != nil {
					t.Fatal(err)
				}
			}

			createSession(t, pts.URL, "prop", 40, 99)
			createSession(t, soloTS.URL, "prop", 40, 99)
			head := feedSession(t, pts.URL, "prop", rows, 0, cut)
			soloHead := feedSession(t, soloTS.URL, "prop", rows, 0, cut)
			for i := range head {
				if head[i] != soloHead[i] {
					t.Fatalf("arrival %d diverged before the cut", i)
				}
			}

			// "Kill" the primary by promoting its replica on the standby —
			// the exact operation a gateway failover performs.
			resp, data := post(t, sts.URL+"/v1/sessions/prop/promote", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("promote on standby: %d %s", resp.StatusCode, data)
			}
			pts.Close()
			primary.Close()

			tail := feedSession(t, sts.URL, "prop", rows, cut, total)
			soloTail := feedSession(t, soloTS.URL, "prop", rows, cut, total)
			for i := range tail {
				if tail[i] != soloTail[i] {
					t.Fatalf("arrival %d diverged after promotion:\n standby %q\n solo    %q", cut+i, tail[i], soloTail[i])
				}
			}
		})
	}
}
