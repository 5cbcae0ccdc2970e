package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// readReport loads a benchjson report from a file.
func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// samples groups a report's sec/op values by benchmark name, and returns the
// names in the order they first appear.
func samples(r *Report) (map[string][]float64, []string) {
	by := make(map[string][]float64)
	var names []string
	for _, b := range r.Benchmarks {
		if _, ok := by[b.Name]; !ok {
			names = append(names, b.Name)
		}
		by[b.Name] = append(by[b.Name], b.SecPerOp)
	}
	return by, names
}

// compare writes one row per benchmark name of either report, old's names
// first: the runs on each side, the median and the minimum of sec/op on each
// side with the change of the median from old to cur, and the two-sided
// p-value of the Mann–Whitney U test of old's runs against cur's.
func compare(w io.Writer, old, cur *Report) error {
	oldBy, names := samples(old)
	newBy, newNames := samples(cur)
	for _, name := range newNames {
		if _, ok := oldBy[name]; !ok {
			names = append(names, name)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tN old\tN new\tmedian old\tmedian new\tchange\tmin old\tmin new\tp\t")
	for _, name := range names {
		x, y := oldBy[name], newBy[name]
		change, p := "-", "-"
		if len(x) > 0 && len(y) > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(y)/median(x)-1))
			_, pv := mannWhitney(x, y)
			p = fmt.Sprintf("%.3f", pv)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t\n", name, len(x), len(y),
			seconds(median(x)), seconds(median(y)), change, seconds(minimum(x)), seconds(minimum(y)), p)
	}
	return tw.Flush()
}

// median returns the middle value of xs, or the mean of the two middle ones;
// NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minimum returns the smallest value of xs; NaN for none.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// seconds formats a sec/op value in the largest unit that keeps it ≥ 1.
func seconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2fµs", s*1e6)
	default:
		return fmt.Sprintf("%.1fns", s*1e9)
	}
}

// mannWhitney returns the Mann–Whitney U statistic of x against y, the
// number of pairs with x above y plus half the tied pairs, and its exact
// two-sided p-value: the share of the C(n, len(x)) ways to split the pooled
// values that put U at least as far from its mean, len(x)·len(y)/2, as the
// observed split does. Tied values share their mid-rank, so the
// distribution is the permutation distribution given the ties. The count
// runs over the rank sums of x, doubled to stay whole, in O(n³·len(x))
// steps, which is instant at benchmark sample sizes.
func mannWhitney(x, y []float64) (u, p float64) {
	n1, n := len(x), len(x)+len(y)
	type obs struct {
		v   float64
		old bool
	}
	pool := make([]obs, 0, n)
	for _, v := range x {
		pool = append(pool, obs{v, true})
	}
	for _, v := range y {
		pool = append(pool, obs{v, false})
	}
	slices.SortStableFunc(pool, func(a, b obs) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	// rank2[i] is twice the mid-rank of pool[i]: a run of ties over the
	// ranks a+1..b shares (a+1+b)/2.
	rank2 := make([]int, n)
	w2 := 0 // twice the rank sum of x
	for a := 0; a < n; {
		b := a + 1
		for b < n && pool[b].v == pool[a].v {
			b++
		}
		for i := a; i < b; i++ {
			rank2[i] = a + 1 + b
			if pool[i].old {
				w2 += rank2[i]
			}
		}
		a = b
	}
	u = float64(w2-n1*(n1+1)) / 2
	// ways[c][s] counts the c-element subsets of the values seen so far whose
	// doubled ranks sum to s.
	top := n * (n + 1)
	ways := make([][]float64, n1+1)
	for c := range ways {
		ways[c] = make([]float64, top+1)
	}
	ways[0][0] = 1
	for _, r := range rank2 {
		for c := n1; c >= 1; c-- {
			for s := top; s >= r; s-- {
				ways[c][s] += ways[c-1][s-r]
			}
		}
	}
	mean2 := n1 * (n + 1) // twice the mean rank sum of x
	dist := abs(w2 - mean2)
	var tail, total float64
	for s, c := range ways[n1] {
		total += c
		if abs(s-mean2) >= dist {
			tail += c
		}
	}
	return u, tail / total
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
