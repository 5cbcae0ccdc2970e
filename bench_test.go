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
	"sync/atomic"
	"testing"

	"mcdc"
	"mcdc/client"
	"mcdc/internal/datasets"
	"mcdc/internal/experiments"
	"mcdc/internal/linkage"
	"mcdc/internal/server"
	"mcdc/internal/similarity"
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

// BenchmarkSimilarityParallel measures the O(n²·d) pairwise similarity
// matrix at n = 2000, sequential versus tiled across all cores, in both
// representations. On a machine with ≥ 4 cores the workers=all
// sub-benchmarks should run ≥ 2× faster than workers=1 (the computation is
// embarrassingly parallel and cache-friendly); on a single-core runner the
// two coincide. The condensed form stores n·(n−1)/2 entries against the
// dense path's n² square plus the packed triangle it expands from, so its
// B/op must come in ≥ 40% lower — the memory-scaling gate of the condensed
// refactor (run with -benchmem or rely on ReportAllocs below).
func BenchmarkSimilarityParallel(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_sim", 2000, 25, 3, 1)
	rows := ds.Rows
	gmp := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"dense/workers=1", func() { similarity.PairwiseMatrix(rows, 1) }},
		{fmt.Sprintf("dense/workers=%d", gmp), func() { similarity.PairwiseMatrix(rows, 0) }},
		{"condensed/workers=1", func() { similarity.PairwiseCondensed(rows, 1) }},
		{fmt.Sprintf("condensed/workers=%d", gmp), func() { similarity.PairwiseCondensed(rows, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}

// BenchmarkPackedPairwise pins the bit-packed popcount kernel against the
// per-feature unpacked oracle on the same n=2000 categorical rows as
// BenchmarkSimilarityParallel: PairwiseCondensed auto-selects the packed
// fill (one-hot bit planes, AND + bits.OnesCount64 per word), while
// PairwiseCondensedUnpacked is the branchy original kept as cross-check
// oracle and fallback. The packed/unpacked sec/op ratio is the ≥4× tentpole
// acceptance bar; both are part of the benchmark-regression CI gate so
// neither kernel can quietly rot. The outputs are bit-for-bit identical
// (pinned by TestPackedPairwiseEquivalence and the similarity property
// tests).
func BenchmarkPackedPairwise(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_sim", 2000, 25, 3, 1)
	rows := ds.Rows
	gmp := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"packed/workers=1", func() { similarity.PairwiseCondensed(rows, 1) }},
		{fmt.Sprintf("packed/workers=%d", gmp), func() { similarity.PairwiseCondensed(rows, 0) }},
		{"unpacked/workers=1", func() { similarity.PairwiseCondensedUnpacked(rows, 1) }},
		{fmt.Sprintf("unpacked/workers=%d", gmp), func() { similarity.PairwiseCondensedUnpacked(rows, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
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
// WithParallelism. The ensemble repeats are the dominant fan-out.
func BenchmarkClusterParallelism(b *testing.B) {
	ds := mcdc.SyntheticDataset("syn_par", 2000, 10, 3, 1)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
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
		resp, err := http.Post(ts.URL+"/assign", "application/json", body(i))
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
	// The v1 fast path: binary frames pipelined 64 per request over a
	// persistent connection. One op is still one assigned row, so sec/op
	// compares directly against http/serial — the PR-6 acceptance bar is
	// ≥2× the per-request JSON throughput.
	b.Run("binary/pipelined", func(b *testing.B) {
		c := client.New(ts.URL, client.WithBinary())
		ctx := context.Background()
		for done := 0; done < b.N; {
			size := 64
			if done+size > b.N {
				size = b.N - done
			}
			rows := make([][]int, size)
			for i := range rows {
				rows[i] = ds.Rows[(done+i)%ds.N()]
			}
			as, err := c.AssignMany(ctx, "m", rows)
			if err != nil {
				b.Fatal(err)
			}
			if len(as) != size {
				b.Fatalf("%d results for %d rows", len(as), size)
			}
			done += size
		}
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

// BenchmarkLinkageScale measures the two linkage engines on the same
// condensed Hamming matrix as n grows: the O(n³) per-step nearest-pair scan
// (the PR-2 baseline, kept as the cross-check oracle) against the O(n²)
// nearest-neighbour chain that replaced it on every consumer. Part of the
// benchmark-regression CI gate; the scan is omitted at n=5000, where its
// cubic cost (~minutes per run) would blow the gate's time budget — the
// chain covers the full sweep. ReportAllocs surfaces the working-set story:
// both engines allocate one condensed clone plus O(n) bookkeeping,
// regardless of how many merges they perform. 16 features keep the Hamming
// grid dyadic, where chain and scan are bit-for-bit identical (pinned by
// TestChainLinkageEquivalence and the linkage equivalence suite).
func BenchmarkLinkageScale(b *testing.B) {
	for _, n := range []int{500, 2000, 5000} {
		n := n
		run := func(name string, build func(*similarity.Condensed) (*linkage.Dendrogram, error)) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				// Matrix setup is lazy (filtered-out sizes are never built)
				// and cached across -count repetitions, then excluded from
				// the timing.
				cond := linkBenchCondensed(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := build(cond); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if n <= 2000 {
			run("scan", func(cond *similarity.Condensed) (*linkage.Dendrogram, error) {
				return linkage.BuildCondensedWorkers(cond, linkage.Average, 0)
			})
		}
		run("chain", func(cond *similarity.Condensed) (*linkage.Dendrogram, error) {
			return linkage.BuildChainWorkers(cond, linkage.Average, 0)
		})
	}
}

// linkBenchCache memoizes the O(n²·d) Hamming matrices of
// BenchmarkLinkageScale so -count repetitions and filtered runs never
// rebuild them.
var linkBenchCache = map[int]*similarity.Condensed{}

func linkBenchCondensed(n int) *similarity.Condensed {
	if c, ok := linkBenchCache[n]; ok {
		return c
	}
	ds := mcdc.SyntheticDataset("syn_link", n, 16, 4, 1)
	c := linkage.HammingCondensedWorkers(ds.Rows, 0)
	linkBenchCache[n] = c
	return c
}

// BenchmarkFig6_ScaleN reproduces the shape of Fig. 6a: MCDC execution time
// as n grows. The paper reports it linear in n; here it is superlinear,
// because k₀ = ⌈√n⌉ makes each MGCPL pass O(d·n^1.5) (bench/README.md, "Why
// train-paper is at paper scale", measures 35× the time for 5× the rows).
func BenchmarkFig6_ScaleN(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000} {
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
