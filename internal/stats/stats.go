// Package stats provides the statistical machinery used by the paper's
// evaluation: the two-tailed Wilcoxon signed-rank test of Table IV and
// mean/standard-deviation aggregation for the 50-run averages of Table III.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// WilcoxonResult reports the outcome of a two-tailed Wilcoxon signed-rank
// test on paired samples.
type WilcoxonResult struct {
	W      float64 // test statistic: min(W+, W−)
	PValue float64 // two-tailed p-value
	NUsed  int     // pairs after dropping zero differences
	Exact  bool    // true when the exact null distribution was enumerated
	WPlus  float64 // sum of ranks of positive differences
	WMinus float64 // sum of ranks of negative differences
}

// Wilcoxon performs the two-tailed Wilcoxon signed-rank test on paired
// samples x and y (H0: the median difference is zero). Zero differences are
// dropped (Wilcoxon's original procedure); ties among |differences| receive
// average ranks. For n ≤ 20 usable pairs the exact permutation distribution
// is enumerated; larger samples use the normal approximation with tie
// correction.
func Wilcoxon(x, y []float64) (WilcoxonResult, error) {
	if len(x) != len(y) {
		return WilcoxonResult{}, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(x), len(y))
	}
	type diff struct {
		abs  float64
		sign int
	}
	diffs := make([]diff, 0, len(x))
	for i := range x {
		d := x[i] - y[i]
		if d == 0 {
			continue
		}
		s := 1
		if d < 0 {
			s = -1
		}
		diffs = append(diffs, diff{abs: math.Abs(d), sign: s})
	}
	n := len(diffs)
	if n == 0 {
		// All pairs identical: no evidence against H0.
		return WilcoxonResult{W: 0, PValue: 1, NUsed: 0, Exact: true}, nil
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].abs < diffs[j].abs })

	ranks := make([]float64, n)
	var tieCorrection float64
	for i := 0; i < n; {
		j := i
		for j < n && diffs[j].abs == diffs[i].abs {
			j++
		}
		avg := float64(i+j+1) / 2 // average of ranks i+1..j
		for t := i; t < j; t++ {
			ranks[t] = avg
		}
		tlen := float64(j - i)
		tieCorrection += tlen*tlen*tlen - tlen
		i = j
	}

	var wPlus, wMinus float64
	for i, d := range diffs {
		if d.sign > 0 {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w := math.Min(wPlus, wMinus)
	res := WilcoxonResult{W: w, NUsed: n, WPlus: wPlus, WMinus: wMinus}

	if n <= 20 {
		res.Exact = true
		res.PValue = exactWilcoxonP(ranks, w)
		return res, nil
	}
	fn := float64(n)
	mean := fn * (fn + 1) / 4
	variance := fn*(fn+1)*(2*fn+1)/24 - tieCorrection/48
	if variance <= 0 {
		res.PValue = 1
		return res, nil
	}
	// Continuity correction toward the mean.
	z := (w - mean + 0.5) / math.Sqrt(variance)
	res.PValue = math.Min(1, 2*normalCDF(z))
	return res, nil
}

// exactWilcoxonP enumerates all 2^n sign assignments over the given ranks and
// returns P(min(W+,W−) ≤ w), the exact two-tailed p-value. Ranks may carry
// tie-averaged (fractional) values.
func exactWilcoxonP(ranks []float64, w float64) float64 {
	n := len(ranks)
	var total float64
	for _, r := range ranks {
		total += r
	}
	count := 0
	limit := 1 << n
	const eps = 1e-9
	for mask := 0; mask < limit; mask++ {
		var wp float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				wp += ranks[i]
			}
		}
		if math.Min(wp, total-wp) <= w+eps {
			count++
		}
	}
	return float64(count) / float64(limit)
}

// normalCDF is the standard normal CDF.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SignificantlyGreater reports whether sample x significantly outperforms
// sample y at level alpha under the two-tailed Wilcoxon signed-rank test,
// i.e. the paper's "+" marker: H0 rejected and the positive-rank mass
// dominates.
func SignificantlyGreater(x, y []float64, alpha float64) (bool, WilcoxonResult, error) {
	res, err := Wilcoxon(x, y)
	if err != nil {
		return false, res, err
	}
	return res.PValue < alpha && res.WPlus > res.WMinus, res, nil
}
