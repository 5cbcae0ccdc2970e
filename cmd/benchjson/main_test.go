package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mcdc
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSimilarityParallel/dense/workers=1-8         	       6	 192744578 ns/op	48816576 B/op	    2019 allocs/op
BenchmarkSimilarityParallel/condensed/workers=1-8     	       7	 161572921 ns/op	15999232 B/op	      10 allocs/op
BenchmarkTable4_Wilcoxon   	  505371	      2363 ns/op
--- BENCH: some stray output
PASS
ok  	mcdc	0.708s
`

func TestParseSample(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || !strings.Contains(report.CPU, "Xeon") {
		t.Errorf("context: %+v", report)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}
	b0 := report.Benchmarks[0]
	if b0.Name != "BenchmarkSimilarityParallel/dense/workers=1" || b0.Procs != 8 {
		t.Errorf("first benchmark: %+v", b0)
	}
	if b0.Pkg != "mcdc" || b0.Iterations != 6 || b0.NsPerOp != 192744578 ||
		b0.BytesPerOp != 48816576 || b0.AllocsPerOp != 2019 || !b0.HaveMem {
		t.Errorf("first benchmark fields: %+v", b0)
	}
	if b0.SecPerOp != 0.192744578 {
		t.Errorf("sec/op = %v, want 0.192744578", b0.SecPerOp)
	}
	b2 := report.Benchmarks[2]
	if b2.Name != "BenchmarkTable4_Wilcoxon" || b2.Procs != 0 || b2.NsPerOp != 2363 || b2.BytesPerOp != 0 {
		t.Errorf("time-only benchmark: %+v", b2)
	}
	if b2.SecPerOp != 2363e-9 || b2.HaveMem {
		t.Errorf("time-only benchmark sec/op fields: %+v", b2)
	}
	// An explicit zero-alloc measurement must be distinguishable from a run
	// without -benchmem: HaveMem marks the difference.
	zero, ok := parseBenchLine("BenchmarkServerAssign/inprocess/assigner-8 	 1000000 	 1034 ns/op 	 0 B/op 	 0 allocs/op")
	if !ok || !zero.HaveMem || zero.AllocsPerOp != 0 || zero.BytesPerOp != 0 || zero.Metrics != nil {
		t.Errorf("zero-alloc line: %+v (ok=%v)", zero, ok)
	}
}

// TestParseCustomMetric pins that a b.ReportMetric value survives into the
// JSON under its own unit, beside the standard columns.
func TestParseCustomMetric(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkServerAssign/http/batch256-2 	 4608 	 5210 ns/op 	 52.50 allocs/req 	 410 B/op 	 0 allocs/op")
	if !ok || r.NsPerOp != 5210 || r.BytesPerOp != 410 || r.AllocsPerOp != 0 || !r.HaveMem {
		t.Fatalf("standard columns: %+v (ok=%v)", r, ok)
	}
	if len(r.Metrics) != 1 || r.Metrics["allocs/req"] != 52.5 {
		t.Errorf("metrics = %v, want map[allocs/req:52.5]", r.Metrics)
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken-8",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkBroken-8 10 notafloat ns/op",
	} {
		if r, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) = %+v, want reject", line, r)
		}
	}
}
