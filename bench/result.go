package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark's contract (BENCHMARK.json).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. README.md gives each one's bound and meaning per workload.
var endToEnd = []metricDef{
	{"rows_per_s", "rows/s"},
	{"cpu_us_per_row", "us"},
	{"p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"acc_mean", "ratio"},
}

// perLayer are the metrics of single layers, reported by every traced run.
// A layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"loadgen.wait_us", "us"},
	{"loadgen.late_share", "ratio"},
	{"client.self_us", "us"},
	{"client.transport_us", "us"},
	{"gateway.self_us", "us"},
	{"gateway.upstream_us", "us"},
	{"gateway.hop_us", "us"},
	{"gateway.fanout", "count"},
	{"gateway.retries", "count"},
	{"server.self_us", "us"},
	{"server.json_assign_ns", "ns"},
	{"server.json_assign_allocs", "count"},
	{"server.frame_assign_ns", "ns"},
	{"server.frame_assign_allocs", "count"},
	{"server.json_batch256_us", "us"},
	{"server.json_batch256_allocs", "count"},
	{"stream.add_us", "us"},
	{"stream.snapshot_us", "us"},
	{"stream.save_us", "us"},
	{"stream.state_bytes", "B"},
	{"stream.relearn_ms", "ms"},
	{"model.assign_ns", "ns"},
	{"model.assign_allocs", "count"},
	{"model.batch256_us", "us"},
	{"model.wire_row_ns", "ns"},
	{"model.build_ms", "ms"},
	{"model.save_ms", "ms"},
	{"model.load_ms", "ms"},
	{"model.snapshot_bytes", "B"},
	{"core.mgcpl_s", "s"},
	{"core.came_s", "s"},
	{"core.levels", "count"},
	{"runtime.alloc_bytes_per_row", "B"},
	{"runtime.gc_per_krow", "count"},
	{"trace_overhead_pct", "%"},
	{"trace.path_gap_pct", "%"},
}

// metric is one measured value as a child process reports it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples and Beyond qualify a latency quantile: how many samples it was
	// read from, and how many ranked above it. For a median of per-window
	// quantiles, Windows counts the windows and the two count one window.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"beyond,omitempty"`
	Windows int `json:"windows,omitempty"`
	// Diag marks a printed diagnostic that is not part of the contract.
	Diag bool `json:"diag,omitempty"`
}

// result is everything one workload's child process reports.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Failures  []string `json:"failures,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// set records a contract metric, taking its unit from the definition.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: d.unit})
				return
			}
		}
	}
	panic("bench: undefined metric " + name)
}

// diagQuantile records a latency quantile, with its sample counts, as a
// printed diagnostic.
func (r *result) diagQuantile(name string, sorted []time.Duration, q float64) {
	v, beyond := quantile(sorted, q)
	m := metric{Name: name, Value: ms(v), Unit: "ms", Samples: len(sorted), Beyond: beyond, Diag: true}
	r.Metrics = append(r.Metrics, m)
}

// setWindowedQuantile splits lat into len(keep) equal consecutive windows and
// records the median, over the kept windows, of each one's q-quantile. A
// disturbance confined to a few windows moves their quantiles, not the
// median.
func (r *result) setWindowedQuantile(name string, lat []time.Duration, q float64, keep []bool, diag bool) {
	var vals []float64
	m := metric{Name: name, Unit: "ms", Diag: diag}
	for w, k := range keep {
		seg := lat[w*len(lat)/len(keep) : (w+1)*len(lat)/len(keep)]
		if !k || len(seg) == 0 {
			continue
		}
		v, beyond := quantile(sortedCopy(seg), q)
		vals = append(vals, ms(v))
		m.Windows, m.Samples, m.Beyond = m.Windows+1, len(seg), beyond
	}
	m.Value = median(vals)
	r.Metrics = append(r.Metrics, m)
}

// diag records a printed diagnostic outside the contract.
func (r *result) diag(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Diag: true})
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// quantile returns the nearest-rank q-quantile of ascending samples — the
// smallest sample with at least a q share of all samples at or below it —
// and how many samples rank above it.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps q·n that lands on an integer from rounding up.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of xs (the mean of the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
