package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestMannWhitneyExact checks U and the exact two-sided p-value against
// values counted by hand over the C(n, len(x)) splits: complete separation
// at 3, 4, 5+7 and 6 runs a side, either way round, an interleaved split,
// and ties, which share their mid-rank.
func TestMannWhitneyExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y []float64
		u, p float64
	}{
		{"3+3 separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 2.0 / 20},
		{"3+3 separated, reversed", []float64{6, 4, 5}, []float64{3, 1, 2}, 9, 2.0 / 20},
		{"4+4 separated", []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 0, 2.0 / 70},
		{"5+7 separated", []float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10, 11, 12}, 0, 2.0 / 792},
		{"6+6 separated", []float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12}, 0, 2.0 / 924},
		// W = 9 of rank sums 6..15, counted 1,1,2,3,3,3,3,2,1,1: 14 of 20
		// splits lie at least 1.5 from the mean 10.5.
		{"3+3 interleaved", []float64{1, 3, 5}, []float64{2, 4, 6}, 3, 14.0 / 20},
		// Ranks 1, 2, 3.5, 3.5, 5, 6: W = 6.5, and only the two splits
		// {1, 2, 3.5} and the two {3.5, 5, 6} lie 4 from the mean.
		{"3+3 one tie across", []float64{1, 2, 3}, []float64{3, 4, 5}, 0.5, 4.0 / 20},
		{"all tied", []float64{7, 7}, []float64{7, 7, 7}, 3, 1},
		{"1+1", []float64{1}, []float64{2}, 0, 1},
	} {
		u, p := mannWhitney(tc.x, tc.y)
		if u != tc.u || math.Abs(p-tc.p) > 1e-12 {
			t.Errorf("%s: U %v, p %v; want U %v, p %v", tc.name, u, p, tc.u, tc.p)
		}
	}
}

// TestCompareRows checks compare's table: one row per name, old's first,
// with the runs, medians, change, minima and p-value, and dashes for a
// benchmark that only one side ran.
func TestCompareRows(t *testing.T) {
	report := func(name string, secs ...float64) *Report {
		r := &Report{}
		for _, s := range secs {
			r.Benchmarks = append(r.Benchmarks, Result{Name: name, SecPerOp: s})
		}
		return r
	}
	old := report("BenchmarkA", 0.150, 0.140, 0.160, 0.155, 0.145, 0.150)
	old.Benchmarks = append(old.Benchmarks, report("BenchmarkGone", 2e-6).Benchmarks...)
	cur := report("BenchmarkA", 0.120, 0.110, 0.125, 0.121, 0.119, 0.130)
	cur.Benchmarks = append(cur.Benchmarks, report("BenchmarkNew", 3e-9).Benchmarks...)
	var buf bytes.Buffer
	if err := compare(&buf, old, cur); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want a header and 3 rows:\n%s", len(lines), buf.String())
	}
	for i, want := range [][]string{
		{"BenchmarkA", "6", "6", "150.00ms", "120.50ms", "-19.7%", "140.00ms", "110.00ms", "0.002"},
		{"BenchmarkGone", "1", "0", "2.00µs", "-", "-", "2.00µs", "-", "-"},
		{"BenchmarkNew", "0", "1", "-", "3.0ns", "-", "-", "3.0ns", "-"},
	} {
		if got := strings.Fields(lines[i+1]); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("row %d: %q, want %q", i, got, want)
		}
	}
}
