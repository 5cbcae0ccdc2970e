// Command benchjson converts the text output of `go test -bench` into a
// machine-readable JSON document, so CI can archive benchmark runs as
// artifacts (BENCH_pr<N>.json) and tooling can diff them without re-parsing
// the bench text format.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH.json
//
// The parser understands the standard line shape
//
//	BenchmarkName-8   125   9123456 ns/op   4096 B/op   12 allocs/op
//
// plus the goos/goarch/pkg/cpu context lines; anything else is ignored. A
// value with any other unit — a custom b.ReportMetric such as allocs/req —
// lands in the result's metrics map under that unit.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement. SecPerOp mirrors NsPerOp in
// benchstat's sec/op unit so downstream tooling can diff either scale
// without re-deriving it. BytesPerOp/AllocsPerOp are emitted whenever the
// run carried -benchmem (HaveMem) — including explicit zeros, which are a
// real measurement (the allocation-free serving probe is gated on exactly
// 0 allocs/op), not an absence. Metrics holds every other reported value,
// keyed by its unit.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	SecPerOp    float64 `json:"sec_per_op"`
	HaveMem     bool    `json:"have_mem"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	report := &Report{Benchmarks: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				r.Pkg = pkg
				report.Benchmarks = append(report.Benchmarks, r)
			}
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses one `BenchmarkX-P  N  V ns/op [V B/op] [V allocs/op]`
// line; malformed lines report !ok and are skipped by the caller.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			r.SecPerOp = v / 1e9
		case "B/op":
			r.BytesPerOp = int64(v)
			r.HaveMem = true
		case "allocs/op":
			r.AllocsPerOp = int64(v)
			r.HaveMem = true
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	if r.NsPerOp == 0 && !strings.Contains(line, "ns/op") {
		return Result{}, false
	}
	return r, true
}
