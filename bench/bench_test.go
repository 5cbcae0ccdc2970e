package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent side of run re-executes itself with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	ten := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tc := range []struct {
		sorted     []time.Duration
		q          float64
		want       time.Duration
		wantBeyond int
	}{
		{ten, 0.5, 5 * time.Millisecond, 5},
		{ten, 0.9, 9 * time.Millisecond, 1},
		{ten, 0.91, 10 * time.Millisecond, 0},
		{ten, 0.99, 10 * time.Millisecond, 0},
		{ten, 0, 1 * time.Millisecond, 9},
		{durations(7), 0.5, 7 * time.Millisecond, 0},
		{durations(1, 2, 3), 0.5, 2 * time.Millisecond, 1},
		{nil, 0.5, 0, 0},
	} {
		got, beyond := quantile(tc.sorted, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("quantile(%v, %v) = %v, %d beyond; want %v, %d beyond", tc.sorted, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	// 1000 samples: p99 leaves ten beyond, p999 one.
	var k []time.Duration
	for i := 1; i <= 1000; i++ {
		k = append(k, time.Duration(i))
	}
	if v, beyond := quantile(k, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v, %d beyond; want 990, 10", v, beyond)
	}
	if v, beyond := quantile(k, 0.999); v != 999 || beyond != 1 {
		t.Errorf("p999 of 1..1000 = %v, %d beyond; want 999, 1", v, beyond)
	}
}

// TestOpenLoopChargesStalls stalls the first request of a one-sender open
// loop: every request that fell due during the stall waits for it, and its
// latency counts from its due time, not from when it was finally sent.
func TestOpenLoopChargesStalls(t *testing.T) {
	const (
		rate  = 1000 // one request due every millisecond
		stall = 60 * time.Millisecond
	)
	send := func(_ context.Context, _, i int, _ time.Time) (int, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 1, nil
	}
	res := openLoop(context.Background(), rate, 100*time.Millisecond, 1, 1, send)
	if len(res.lat) != 100 || res.rows != 100 || res.failed != 0 {
		t.Fatalf("%d latencies, %d rows, %d failed; want 100, 100, 0", len(res.lat), res.rows, res.failed)
	}
	if res.queued < 40 {
		t.Errorf("%d requests queued behind the stall; want at least 40", res.queued)
	}
	// Request i was due i ms in and went out after the stall, so its
	// latency is at least stall − i ms, however fast its own answer was.
	for _, i := range []int{1, 10, 30} {
		if min := stall - time.Duration(i)*time.Millisecond; res.lat[i] < min {
			t.Errorf("request %d: latency %v, want at least %v (stall charged from its due time)", i, res.lat[i], min)
		}
	}
	// Once the backlog has drained, a request finds its sender idle and
	// pays nothing for the stall.
	if res.lat[95] > 20*time.Millisecond {
		t.Errorf("request 95: latency %v after the backlog drained, want under 20ms", res.lat[95])
	}
}

// TestQuietDropsStealBursts: spans the host stole more from than the median
// span leave the medians; flat or negligible steal keeps every span.
func TestQuietDropsStealBursts(t *testing.T) {
	for _, tc := range []struct {
		steal []int64
		span  time.Duration
		want  []bool
	}{
		{[]int64{0, 0, 0, 0}, 0, []bool{true, true, true, true}},
		{[]int64{1, 40, 0, 2, 35}, 0, []bool{true, false, true, true, false}},
		{[]int64{5, 1, 9, 3}, 0, []bool{false, true, false, true}}, // median 4
		// Under 2% of a second on every CPU: at least 2 ticks per CPU.
		{[]int64{0, 1, 0, 2}, time.Second, []bool{true, true, true, true}},
	} {
		if got := quiet(tc.steal, tc.span); !slices.Equal(got, tc.want) {
			t.Errorf("quiet(%v, %v) = %v, want %v", tc.steal, tc.span, got, tc.want)
		}
	}
	// A latency burst in the stolen window does not reach the median.
	lat := durations(1, 1, 1, 50, 50, 50, 2, 2, 2)
	var r result
	r.setWindowedQuantile("p50_ms", lat, 0.5, []bool{true, false, true}, false)
	if m := r.Metrics[0]; m.Value != 1.5 || m.Windows != 2 || m.Samples != 3 {
		t.Errorf("windowed p50 = %v over %d windows of %d, want 1.5 over 2 of 3", m.Value, m.Windows, m.Samples)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	kids := []interval{
		{10, 40}, {30, 60}, // overlap: [10, 60] counts 50 once
		{20, 25},   // inside the first two
		{90, 120},  // clipped to the parent's end: 10
		{-10, 5},   // clipped to the parent's start: 5
		{200, 300}, // outside the parent
	}
	if got := unionWithin(0, 100, kids); got != 65 {
		t.Errorf("unionWithin = %d, want 65", got)
	}
	if got := selfTime(0, 100, kids); got != 35 {
		t.Errorf("selfTime = %d, want 35", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestLinkTraceCriticalPath(t *testing.T) {
	spans := []span{
		// A stateless request the gateway fans out to two backends; the
		// upstream that ends last is the critical one, and the gateway span
		// counts only up to the end of the round trip that carried it.
		{kind: spanClient, id: "t-o-0", due: 0, start: 10, end: 1000},
		{kind: spanTransport, id: "t-o-0", start: 50, end: 950},
		{kind: spanGateway, id: "t-o-0", start: 100, end: 960}, // returns after the client has the headers
		{kind: spanUpstream, id: "t-o-0", at: "b1", start: 150, end: 500},
		{kind: spanUpstream, id: "t-o-0", at: "b2", start: 160, end: 800},
		{kind: spanServer, id: "t-o-0", at: "b1", start: 200, end: 450},
		{kind: spanServer, id: "t-o-0", at: "b2", start: 200, end: 700},
		// A session request whose backend ships a replica while it runs.
		{kind: spanClient, id: "t-o-1", at: "o-01", due: 1990, start: 2000, end: 3000},
		{kind: spanTransport, id: "t-o-1", start: 2010, end: 2990},
		{kind: spanGateway, id: "t-o-1", start: 2020, end: 2980},
		{kind: spanUpstream, id: "t-o-1", at: "b3", start: 2030, end: 2970},
		{kind: spanServer, id: "t-o-1", at: "b3", start: 2040, end: 2960},
		{kind: spanShip, at: "o-01", start: 2100, end: 2300, bytes: 700},
		{kind: spanShip, at: "o-02", start: 2100, end: 2200}, // another session
		{kind: spanShip, at: "o-01", start: 3100, end: 3200}, // after the request
	}
	parents, paths, unlinked := linkTrace(spans)
	if unlinked != 0 || len(paths) != 2 {
		t.Fatalf("%d paths, %d unlinked; want 2, 0", len(paths), unlinked)
	}
	want := []pathTimes{
		{wait: 10, latency: 1000, clientSelf: 90, transportHop: 50, gatewaySelf: 200,
			upstream: 640, upstreamHop: 140, serverSelf: 500, fanout: 2},
		{wait: 10, latency: 1010, clientSelf: 20, transportHop: 20, gatewaySelf: 20,
			upstream: 940, upstreamHop: 20, serverSelf: 720, ship: 200, fanout: 1},
	}
	for i, p := range paths {
		if p != want[i] {
			t.Errorf("path %d\n got %+v\nwant %+v", i, p, want[i])
		}
	}
	// With one upstream the self times partition the latency exactly; with
	// two, the part of the other upstream outside the critical one is left
	// out of the path.
	sum := func(p pathTimes) int64 {
		return p.wait + p.clientSelf + p.transportHop + p.gatewaySelf + p.upstreamHop + p.serverSelf + p.ship
	}
	if sum(paths[0]) != paths[0].latency-10 || sum(paths[1]) != paths[1].latency {
		t.Errorf("path sums %d, %d; want %d, %d", sum(paths[0]), sum(paths[1]), paths[0].latency-10, paths[1].latency)
	}
	wantParents := []int{-1, 0, 1, 2, 2, 3, 4, -1, 7, 8, 9, 10, 11, -1, -1}
	for i, p := range parents {
		if p != wantParents[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanNames[spans[i].kind], p, wantParents[i])
		}
	}
}

// nameRE is the shape every metric and workload name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "p50 ms", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q should not match %s", bad, nameRE)
		}
	}
}

// TestBenchmarkJSON keeps the benchmark's declared contract and its code in
// step: every declared workload exists, and the metrics are the same, in the
// same order, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, c := range []struct {
		key      string
		declared []named
		defs     []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.declared {
			got = append(got, m.Name+"/"+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+"/"+d.unit)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("BENCHMARK.json %s %v, code %v", c.key, got, want)
		}
	}
}

// TestQuickSmoke runs every workload for about a second, untraced and
// traced, through the same parent → child path as a real run, and requires
// every named metric in the summary line.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		args := []string{"-quick", "-seed", "3", "-out", t.TempDir()}
		if traced {
			args = append(args, "-trace")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("traced=%v: exit %d\n%s\n%s", traced, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("traced=%v: summary line: %v", traced, err)
		}
		if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, sum.Correct, sum.Attempted, sum.Failed)
		}
		var missing []string
		for _, w := range workloads {
			for _, d := range defs {
				m, ok := sum.Metrics[w.name+"."+d.name]
				if !ok || m.Unit != d.unit {
					missing = append(missing, w.name+"."+d.name)
				}
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("traced=%v: missing metrics %v", traced, missing)
		}
		if traced {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(args[4], w.name+".trace.json")); err != nil {
					t.Errorf("trace of %s: %v", w.name, err)
				}
			}
		}
	}
}
