package mcdc_test

// Benchmark harness: one testing.B benchmark per table / figure of the
// paper's evaluation section.
//
//   - BenchmarkTable3_*  — the per-method clustering cost behind Table III
//     (the table itself is regenerated by `go run ./cmd/experiments -exp
//     table3`, which prints the same rows as the paper).
//   - BenchmarkTable4_*  — the Wilcoxon significance machinery of Table IV.
//   - BenchmarkFig4_*    — the ablated pipeline versions of Fig. 4.
//   - BenchmarkFig5_*    — the MGCPL multi-granular learning of Fig. 5.
//   - BenchmarkFig6_*    — the scalability sweeps of Fig. 6 (time vs n, k,
//     d); b.N-scaled so the linear shape is visible in ns/op.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/datasets"
	"mcdc/internal/experiments"
	"mcdc/internal/server"
	"mcdc/internal/stats"
)

// benchDataset memoizes generated data sets across benchmark runs.
var benchCache = map[string]*mcdc.Dataset{}

func benchDataset(b *testing.B, name string) *mcdc.Dataset {
	b.Helper()
	if ds, ok := benchCache[name]; ok {
		return ds
	}
	ds, err := mcdc.Builtin(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchCache[name] = ds
	return ds
}

// BenchmarkTable3_Methods measures one full clustering run of each compared
// method on the Vote benchmark (the protocol cell of Table III).
func BenchmarkTable3_Methods(b *testing.B) {
	ds := benchDataset(b, "Vot.")
	for _, m := range experiments.Methods() {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(ds, 2, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3_MCDCAcrossDatasets measures the MCDC pipeline on each of
// the eight benchmark data sets (the MCDC column of Table III).
func BenchmarkTable3_MCDCAcrossDatasets(b *testing.B) {
	method, err := experiments.MethodByName("MCDC")
	if err != nil {
		b.Fatal(err)
	}
	for _, info := range datasets.Table2() {
		b.Run(info.Name, func(b *testing.B) {
			ds := benchDataset(b, info.Name)
			for i := 0; i < b.N; i++ {
				if _, err := method.Run(ds, info.KStar, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4_Wilcoxon measures the exact two-tailed Wilcoxon
// signed-rank test on 8 paired samples, the statistical engine of Table IV.
func BenchmarkTable4_Wilcoxon(b *testing.B) {
	x := []float64{0.414, 0.874, 0.585, 0.784, 0.646, 0.905, 0.506, 0.432}
	y := []float64{0.372, 0.866, 0.551, 0.740, 0.557, 0.869, 0.448, 0.332}
	for i := 0; i < b.N; i++ {
		if _, err := stats.Wilcoxon(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_Ablation measures each ablated pipeline version of Fig. 4 on
// the Balance benchmark.
func BenchmarkFig4_Ablation(b *testing.B) {
	ds := benchDataset(b, "Bal.")
	for _, version := range experiments.AblationVersions {
		b.Run(version, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunAblation(version, ds.Rows, ds.Cardinalities(), 3, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5_MGCPL measures the multi-granular learning process of
// Fig. 5: a full MGCPL run (all granularity levels) per data set.
func BenchmarkFig5_MGCPL(b *testing.B) {
	for _, name := range []string{"Car.", "Vot.", "Bal.", "Tic."} {
		b.Run(name, func(b *testing.B) {
			ds := benchDataset(b, name)
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Explore(ds, mcdc.WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMGCPLScan measures MGCPL's competitive loop where it scores the
// most clusters per object: one op is one Explore at seed 1 on Mus.
// (n = 8,124, d = 22, k₀ = 91) or Nur. (n = 12,960, d = 8, k₀ = 114), so
// every op repeats the same passes. Nearly all of an op is spent scoring
// objects against clusters over the term matrix. Part of the
// benchmark-regression CI gate.
func BenchmarkMGCPLScan(b *testing.B) {
	for _, name := range []string{"Mus.", "Nur."} {
		b.Run(name, func(b *testing.B) {
			ds := benchDataset(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Explore(ds, mcdc.WithSeed(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackedAssigner measures the serving-side packed fast path in
// isolation from HTTP: a bound model.Assigner gathering precomputed probe
// planes over the row's packed value indices (singles, which must stay at 0
// allocs/op — asserted here, not just in the model tests) and the batch
// fan-out over one core and all cores. Part of the benchmark-regression CI
// gate next to BenchmarkServerAssign, which measures the same path behind
// the daemon.
func BenchmarkPackedAssigner(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_srv", 1000, 10, 3, 1)
	res, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		a := m.NewAssigner()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Assign(ds.Rows[i%ds.N()]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := a.Assign(ds.Rows[0]); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("packed Assigner allocates %v/op at steady state, want 0", allocs)
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("batch/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.AssignBatch(ds.Rows, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterParallelism measures the full MCDC pipeline (ensemble
// MGCPL + CAME) sequential versus parallel — the end-to-end effect of
// WithParallelism. The ensemble repeats are the dominant fan-out. At
// workers=2 the 3 repeats take turns on 2 workers, on any machine, so the
// gate times that schedule wherever it runs; where GOMAXPROCS is 2 it is
// also the GOMAXPROCS case, and runs once.
func BenchmarkClusterParallelism(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_par", 2000, 10, 3, 1)
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) == 2 {
		counts = counts[:2] // no name twice
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(1), mcdc.WithParallelism(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerAssign measures the mcdcd serving hot path: one HTTP
// round-trip of POST /assign against a frozen model (serial and with
// parallel clients), plus the in-process snapshot probe underneath it —
// separating protocol overhead from assignment cost — and the reusable
// ModelAssigner scratch, whose 0 allocs/op is the gate of the
// allocation-free serving satellite (run with -benchmem, as the CI job
// does). Part of the benchmark-regression CI gate.
func BenchmarkServerAssign(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_srv", 1000, 10, 3, 1)
	res, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "m.bin")
	if err := m.Save(path); err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.LoadModelFile("m", path); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := func(i int) *bytes.Reader {
		raw, _ := json.Marshal(map[string]any{"model": "m", "row": ds.Rows[i%ds.N()]})
		return bytes.NewReader(raw)
	}
	do := func(b *testing.B, i int) {
		resp, err := http.Post(ts.URL+"/v1/assign", "application/json", body(i))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("http/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(b, i)
		}
	})
	b.Run("http/parallel", func(b *testing.B) {
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				do(b, int(ctr.Add(1)))
			}
		})
	})
	// rowsThrough sends b.N rows through send, size rows per request, and
	// returns how many requests that took. One op is one assigned row.
	rowsThrough := func(b *testing.B, size int, send func(ctx context.Context, model string, rows [][]int) ([]client.Assignment, error)) (requests int) {
		ctx := context.Background()
		for done := 0; done < b.N; requests++ {
			if done+size > b.N {
				size = b.N - done
			}
			rows := make([][]int, size)
			for i := range rows {
				rows[i] = ds.Rows[(done+i)%ds.N()]
			}
			as, err := send(ctx, "m", rows)
			if err != nil {
				b.Fatal(err)
			}
			if len(as) != size {
				b.Fatalf("%d results for %d rows", len(as), size)
			}
			done += size
		}
		return requests
	}
	// The batch-json request shape against one daemon: the typed client's
	// JSON AssignBatch of 256 rows, so both ends of the JSON codec are timed.
	// allocs/op divides a request's allocations over its 256 rows, where
	// they round to 0, so allocs/req reports them per request: client and
	// daemon together, as -benchmem counts them.
	b.Run("http/batch256", func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		requests := rowsThrough(b, 256, client.New(ts.URL).AssignBatch)
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(requests), "allocs/req")
	})
	// pipelined sends b.N rows through c as 64-frame AssignMany requests.
	pipelined := func(b *testing.B, c *client.Client) { rowsThrough(b, 64, c.AssignMany) }
	// The v1 fast path: binary frames pipelined 64 per request over a
	// persistent connection. One op is still one assigned row, so sec/op
	// compares directly against http/serial — the PR-6 acceptance bar is
	// ≥2× the per-request JSON throughput.
	b.Run("binary/pipelined", func(b *testing.B) {
		pipelined(b, client.New(ts.URL, client.WithBinary()))
	})
	// The same stream through a gateway over two backends: the stateless
	// frame path of a fleet, every hop in process. allocs/op counts all of
	// it — client, gateway, both backends, and net/http on each hop.
	b.Run("gateway/pipelined", func(b *testing.B) {
		var addrs []string
		for i := 0; i < 2; i++ {
			be, err := server.New(server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer be.Close()
			if _, _, err := be.LoadModelFile("m", path); err != nil {
				b.Fatal(err)
			}
			bts := httptest.NewServer(be.Handler())
			defer bts.Close()
			addrs = append(addrs, strings.TrimPrefix(bts.URL, "http://"))
		}
		gw, err := server.NewGateway(server.GatewayConfig{Backends: addrs})
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		gts := httptest.NewServer(gw.Handler())
		defer gts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		pipelined(b, client.New(gts.URL, client.WithBinary()))
	})
	b.Run("inprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Assign(ds.Rows[i%ds.N()]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The allocation-free serving probe: a bound ModelAssigner must show 0
	// allocs/op here (the daemon's /assign handler runs this path through a
	// sync.Pool), against inprocess's one Encoding allocation per call.
	b.Run("inprocess/assigner", func(b *testing.B) {
		b.ReportAllocs()
		a := m.NewAssigner()
		for i := 0; i < b.N; i++ {
			if _, err := a.Assign(ds.Rows[i%ds.N()]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamCheckpoint measures one session checkpoint of a warm
// StreamClusterer (16 features, window 256, after 600 rows): save is the
// snapshot and envelope encode a replicated mcdcd session runs under its
// mutex after every assignment, resume is the decode and restore of a
// promotion or page-in. Both report the checkpoint size in B/ckpt. Part of
// the benchmark-regression CI gate, and the only gate on the session write
// path: no gated bench/ workload runs it.
func BenchmarkStreamCheckpoint(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn", 2600, 16, 4, 1)
	sc, err := mcdc.NewStreamClusterer(mcdc.StreamConfig{
		Cardinalities: ds.Cardinalities(),
		WindowSize:    256,
		Seed:          1,
		Parallelism:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range ds.Rows[:600] {
		if _, err := sc.Add(row); err != nil {
			b.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := sc.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer // fresh, as each session checkpoint is
			if err := sc.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ckpt.Len()), "B/ckpt")
	})
	b.Run("resume", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mcdc.ResumeStreamClusterer(bytes.NewReader(ckpt.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ckpt.Len()), "B/ckpt")
	})
}

// BenchmarkFig6_ScaleN reproduces the shape of Fig. 6a: MCDC execution time
// as n grows. The paper reports it linear in n; here it is superlinear,
// because k₀ = ⌈√n⌉ makes each MGCPL pass O(d·n^1.5) and the passes per
// level grow with n. On a 2-vCPU Intel Xeon VM, medians of 4 runs at
// -benchtime 2x: 21.5 ms, 58.2 ms, 0.139 s, 0.843 s and 3.41 s for n =
// 2,000, 4,000, 8,000, 16,000 and 32,000, a log–log slope of 1.85 (least
// squares over the five sizes): 16× the rows took 159× the time.
func BenchmarkFig6_ScaleN(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000, 16000, 32000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := mcdc.SyntheticDataset("syn_n", n, 10, 3, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_ScaleK reproduces the shape of Fig. 6b: MCDC execution time
// as the sought k grows (linear in k).
func BenchmarkFig6_ScaleK(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_n", 4000, 10, 3, 1)
	for _, k := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Cluster(ds, k, mcdc.WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_ScaleD reproduces the shape of Fig. 6c: MCDC execution time
// as d grows (linear in d).
func BenchmarkFig6_ScaleD(b *testing.B) {
	for _, d := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			ds := mcdc.SyntheticDataset("syn_d", 2000, d, 3, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
