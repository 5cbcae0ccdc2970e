package distsim

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mcdc/internal/categorical"
)

func TestPlanPreservesLocalityAndBalances(t *testing.T) {
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = i % 20 // 20 equal clusters
	}
	p, err := Plan(labels, 4)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := len(p.Shards); got != 20 {
		t.Fatalf("shards = %d, want 20", got)
	}
	nodeOf := p.ObjectNodes(len(labels))
	loss, err := LocalityLoss(labels, nodeOf, 4)
	if err != nil {
		t.Fatalf("LocalityLoss: %v", err)
	}
	if loss != 0 {
		t.Errorf("locality loss = %v, want 0 (clusters must never be split)", loss)
	}
	if imb := p.Imbalance(); imb > 1.05 {
		t.Errorf("imbalance = %v, want ≤ 1.05 for equal clusters", imb)
	}
}

func TestPlanSkewedClusters(t *testing.T) {
	// One giant cluster and many small ones.
	labels := make([]int, 0, 1100)
	for i := 0; i < 800; i++ {
		labels = append(labels, 0)
	}
	for c := 1; c <= 30; c++ {
		for i := 0; i < 10; i++ {
			labels = append(labels, c)
		}
	}
	p, err := Plan(labels, 3)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// The giant cluster dominates one node; the rest must share the others.
	nonGiant := 0
	for nd, load := range p.Load {
		if load < 800 {
			nonGiant++
		} else if load != 800 {
			t.Errorf("node %d load = %d, want exactly the giant cluster (800)", nd, load)
		}
	}
	if nonGiant != 2 {
		t.Errorf("expected 2 non-giant nodes, got %d (loads %v)", nonGiant, p.Load)
	}
}

func TestRandomPlacementLosesLocality(t *testing.T) {
	labels := make([]int, 500)
	for i := range labels {
		labels[i] = i % 10
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, len(labels))
	for i := range random {
		random[i] = rng.Intn(5)
	}
	loss, err := LocalityLoss(labels, random, 5)
	if err != nil {
		t.Fatalf("LocalityLoss: %v", err)
	}
	if loss < 0.7 {
		t.Errorf("random placement locality loss = %v, want ≈ 1−1/nodes = 0.8", loss)
	}
}

func TestNodeCatalogGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := NodeCatalog(200, 4, rng)
	if err := cat.Validate(); err != nil {
		t.Fatalf("invalid catalog: %v", err)
	}
	if cat.N() != 200 || cat.NumClasses() != 4 {
		t.Fatalf("catalog n=%d classes=%d, want 200/4", cat.N(), cat.NumClasses())
	}
	// Perfect grouping scores 1.0; the identity labeling is perfect.
	consistency, err := GroupConsistency(cat.Labels, cat.Labels)
	if err != nil {
		t.Fatalf("GroupConsistency: %v", err)
	}
	if consistency != 1 {
		t.Errorf("self-consistency = %v, want 1", consistency)
	}
}

// newTestJob builds a small data set, labeling, and placement.
func newTestJob(t *testing.T, nodes int) ([][]int, []int, *Placement) {
	t.Helper()
	rows := make([][]int, 300)
	labels := make([]int, len(rows))
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		labels[i] = i % 12
		rows[i] = []int{labels[i] % 4, rng.Intn(3), rng.Intn(3)}
	}
	p, err := Plan(labels, nodes)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return rows, []int{4, 3, 3}, p
}

// TestComputeStatsCohesion pins the cohesion summary a worker attaches to
// every shard: mean pairwise simple-matching similarity, with singletons
// perfectly cohesive by convention. Beyond three exact cases, the closed
// form over value counts must agree with a brute-force loop over all pairs
// of rows on random shards with Missing cells.
func TestComputeStatsCohesion(t *testing.T) {
	card := []int{2, 3}
	uniform := [][]int{{1, 2}, {1, 2}, {1, 2}}
	if st := computeStats(0, uniform, card); st.Cohesion != 1 {
		t.Errorf("uniform shard cohesion = %v, want 1", st.Cohesion)
	}
	if st := computeStats(1, [][]int{{0, 1}}, card); st.Cohesion != 1 {
		t.Errorf("singleton shard cohesion = %v, want 1", st.Cohesion)
	}
	// Three rows, pairwise matches 1/2, 0/2, 1/2 -> mean 1/3.
	mixed := [][]int{{0, 1}, {0, 2}, {1, 2}}
	if st := computeStats(2, mixed, card); st.Cohesion != 1.0/3.0 {
		t.Errorf("mixed shard cohesion = %v, want 1/3", st.Cohesion)
	}

	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		n, d := 2+rng.Intn(150), 1+rng.Intn(20)
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(5)
		}
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, d)
			for r := range rows[i] {
				rows[i][r] = rng.Intn(card[r])
				if rng.Intn(10) == 0 {
					rows[i][r] = categorical.Missing
				}
			}
		}
		// The oracle walks every pair of rows and counts the features on
		// which both hold the same non-missing value. Summing the counts as
		// integers keeps it exact, so the mean is the correctly rounded
		// quotient, which the closed form must reproduce bit for bit (a
		// float sum of per-pair ratios drifts by ~n·ε on its own).
		matches := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for r := 0; r < d; r++ {
					if rows[i][r] == rows[j][r] && rows[i][r] != categorical.Missing {
						matches++
					}
				}
			}
		}
		want := float64(matches) / float64(d*n*(n-1)/2)
		if got := computeStats(trial, rows, card).Cohesion; got != want {
			t.Fatalf("trial %d (n=%d, d=%d): cohesion %v, pair loop %v", trial, n, d, got, want)
		}
	}
}

func TestCoordinatorWorkersComplete(t *testing.T) {
	rows, card, plan := newTestJob(t, 3)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	addr, err := coord.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer coord.Close()

	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func() {
			_, err := (&Worker{}).Run(addr)
			errs <- err
		}()
	}
	stats := coord.Wait()
	if len(stats) != len(plan.Shards) {
		t.Fatalf("collected %d shard stats, want %d", len(stats), len(plan.Shards))
	}
	freq, total := MergeStats(stats, card)
	if total != len(rows) {
		t.Errorf("merged count = %d, want %d", total, len(rows))
	}
	var sum int
	for _, c := range freq[0] {
		sum += c
	}
	if sum != len(rows) {
		t.Errorf("feature-0 histogram mass = %d, want %d", sum, len(rows))
	}
	for w := 0; w < 3; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not finish")
		}
	}
}

func TestCoordinatorSurvivesWorkerFailure(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	addr, err := coord.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer coord.Close()

	// A flaky worker that quits after one shard, then a reliable one.
	go func() { _, _ = (&Worker{MaxShards: 1}).Run(addr) }()
	go func() { _, _ = (&Worker{}).Run(addr) }()

	done := make(chan []ShardStats, 1)
	go func() { done <- coord.Wait() }()
	select {
	case stats := <-done:
		if len(stats) != len(plan.Shards) {
			t.Fatalf("collected %d shard stats, want %d", len(stats), len(plan.Shards))
		}
		_, total := MergeStats(stats, card)
		if total != len(rows) {
			t.Errorf("merged count = %d, want %d (every shard exactly once)", total, len(rows))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete after worker failure")
	}
}

func TestCoordinatorEarlyClose(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	addr, err := coord.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A worker connects, then the job is aborted before completion. Close
	// must terminate every goroutine without deadlocking, and the worker
	// must come back (with or without an error, depending on timing).
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_, _ = (&Worker{MaxShards: 1}).Run(addr)
	}()
	<-workerDone
	closed := make(chan error, 1)
	go func() { closed <- coord.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked after early abort")
	}
}

// TestCoordinatorConcurrentClose pins the shutdown path against racing
// callers: Close from several goroutines at once must neither panic (a bare
// check-then-close of the quit channel would) nor deadlock.
func TestCoordinatorConcurrentClose(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = coord.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Close deadlocked")
	}
}

// TestWorkerRejectsVersionMismatch pins the fail-fast path of the version
// handshake: a coordinator speaking a different protocol version yields a
// clear error mentioning both versions, not a decode panic mid-job.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = gob.NewEncoder(conn).Encode(message{Kind: kindHello, Proto: ProtocolVersion + 7})
		// Hold the connection open so the worker's error comes from the
		// version check, not a hangup.
		var reply message
		_ = gob.NewDecoder(conn).Decode(&reply)
	}()
	_, err = (&Worker{}).Run(ln.Addr().String())
	if err == nil {
		t.Fatal("version mismatch accepted")
	}
	for _, want := range []string{"protocol version mismatch", fmt.Sprintf("v%d", ProtocolVersion+7), fmt.Sprintf("v%d", ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestWorkerRejectsUnversionedCoordinator covers a pre-handshake (v1) build:
// the first frame is a task, and the worker must refuse it by name.
func TestWorkerRejectsUnversionedCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = gob.NewEncoder(conn).Encode(message{Kind: kindTask, ShardID: 1, Rows: [][]int{{0}}, Cardinalities: []int{1}})
		var reply message
		_ = gob.NewDecoder(conn).Decode(&reply)
	}()
	_, err = (&Worker{}).Run(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "version handshake") {
		t.Fatalf("unversioned coordinator not refused by name: %v", err)
	}
}

// TestWorkerRejectsMalformedTask pins the worker's schema check: a task row
// with the wrong number of values, a value outside its feature's domain, or
// a negative cardinality is refused with an error naming the shard, row and
// feature, and no result is sent. Without the check such a task indexes
// past the value histograms, or sizes one negatively, and the worker panics.
func TestWorkerRejectsMalformedTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		card []int
		rows [][]int
		want []string
	}{
		{"long row", []int{2, 2}, [][]int{{0, 1, 1}, {1, 0, 0}}, []string{"shard 5", "row 0", "3 values"}},
		{"short row", []int{2, 2}, [][]int{{0, 1}, {1}}, []string{"shard 5", "row 1", "1 values"}},
		{"value past domain", []int{2, 2}, [][]int{{0, 1}, {1, 2}}, []string{"shard 5", "row 1 feature 1", "value 2"}},
		{"negative value", []int{2, 2}, [][]int{{-2, 1}}, []string{"shard 5", "row 0 feature 0", "value -2"}},
		{"negative cardinality", []int{2, -1}, [][]int{{0, -1}}, []string{"shard 5", "feature 1", "cardinality -1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			replied := make(chan bool, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					replied <- false
					return
				}
				defer conn.Close()
				enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
				var hello message
				_ = enc.Encode(message{Kind: kindHello, Proto: ProtocolVersion})
				_ = dec.Decode(&hello)
				_ = enc.Encode(message{Kind: kindTask, ShardID: 5, Rows: tc.rows, Cardinalities: tc.card})
				var reply message
				replied <- dec.Decode(&reply) == nil
			}()
			_, err = (&Worker{}).Run(ln.Addr().String())
			if err == nil {
				t.Fatal("malformed task accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
			if <-replied {
				t.Error("worker sent a result for a malformed task")
			}
		})
	}
}

// TestNewCoordinatorRejectsMalformedRows: a data set whose rows do not fit
// its schema is refused up front, naming the row and feature, instead of
// leaving every worker to refuse its shards while Wait blocks; a placement
// naming an object past the last row is refused naming the shard and object,
// instead of a worker connection indexing past the rows.
func TestNewCoordinatorRejectsMalformedRows(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	outOfDomain := append([][]int(nil), rows...)
	outOfDomain[17] = []int{0, 3, 1}
	pastEnd := &Placement{Shards: []Shard{{ID: 0, Objects: []int{0, 1}}, {ID: 1, Objects: []int{2, 5, 3}}}}
	for _, tc := range []struct {
		name string
		rows [][]int
		plan *Placement
		want string
	}{
		{"a value outside its domain", outOfDomain, plan, "row 17 feature 1"},
		{"an object past the last row", rows[:5], pastEnd, "shard 1 object 5"},
	} {
		_, err := NewCoordinator(tc.rows, card, tc.plan)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewCoordinator on %s: %v", tc.name, err)
		}
	}
}

// TestCoordinatorDropsMismatchedWorker checks the other direction: the
// coordinator hands no work to a worker that answers the handshake with the
// wrong version, and the job still completes through a good worker.
func TestCoordinatorDropsMismatchedWorker(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A mismatched "worker": completes the handshake with a wrong version
	// and then expects the connection to be closed without any task frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var hello message
	if err := dec.Decode(&hello); err != nil || hello.Kind != kindHello || hello.Proto != ProtocolVersion {
		t.Fatalf("coordinator hello = %+v, err %v", hello, err)
	}
	if err := enc.Encode(message{Kind: kindHello, Proto: ProtocolVersion - 1}); err != nil {
		t.Fatal(err)
	}
	var frame message
	if err := dec.Decode(&frame); err == nil {
		t.Fatalf("mismatched worker was handed a frame: %+v", frame)
	}

	// A good worker completes the whole job.
	go func() { _, _ = (&Worker{}).Run(addr) }()
	done := make(chan []ShardStats, 1)
	go func() { done <- coord.Wait() }()
	select {
	case stats := <-done:
		if len(stats) != len(plan.Shards) {
			t.Fatalf("collected %d shard stats, want %d", len(stats), len(plan.Shards))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete after dropping the mismatched worker")
	}
}

// TestCloseUnblocksStalledHandshake pins the teardown contract: a peer that
// connects and then goes silent parks serveWorker in a gob read; Close must
// close the connection and return instead of hanging in wg.Wait.
func TestCloseUnblocksStalledHandshake(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	coord, err := NewCoordinator(rows, card, plan)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := coord.Start()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never answer the handshake; give the coordinator a moment to accept
	// and park in the hello decode.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stalled handshake connection")
	}
}
