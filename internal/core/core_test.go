package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
	"mcdc/internal/similarity"
)

// separated builds a well-separated k-cluster data set.
func separated(n, d, k int, seed int64) ([][]int, []int, []int) {
	ds := datasets.Synthetic("t", n, d, k, 0.9, rand.New(rand.NewSource(seed)))
	return ds.Rows, ds.Cardinalities(), ds.Labels
}

func TestMGCPLPartitionInvariants(t *testing.T) {
	rows, card, _ := separated(400, 8, 3, 1)
	res, err := RunMGCPL(rows, card, MGCPLConfig{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no granularity levels")
	}
	prevK := math.MaxInt32
	for li, lv := range res.Levels {
		if lv.K >= prevK {
			t.Errorf("kappa not strictly decreasing at level %d: %v", li, res.Kappa())
		}
		prevK = lv.K
		if len(lv.Labels) != len(rows) {
			t.Fatalf("level %d: %d labels, want %d", li, len(lv.Labels), len(rows))
		}
		seen := make(map[int]bool)
		for i, l := range lv.Labels {
			if l < 0 || l >= lv.K {
				t.Fatalf("level %d object %d: label %d outside [0,%d)", li, i, l, lv.K)
			}
			seen[l] = true
		}
		if len(seen) != lv.K {
			t.Errorf("level %d: %d distinct labels, K=%d (labels must be dense)", li, len(seen), lv.K)
		}
	}
}

func TestMGCPLFindsTrueKOnSeparatedData(t *testing.T) {
	rows, card, truth := separated(600, 10, 3, 3)
	res, err := RunMGCPL(rows, card, MGCPLConfig{Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	if final.K < 2 || final.K > 5 {
		t.Errorf("final k = %d, want near true k = 3 (kappa %v)", final.K, res.Kappa())
	}
	// The coarsest partition should align well with the planted clusters.
	ari, err := metrics.AdjustedRandIndex(truth, final.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.5 {
		t.Errorf("final-level ARI = %v, want ≥ 0.5 on well-separated data", ari)
	}
}

func TestMGCPLDeterministicGivenSeed(t *testing.T) {
	rows, card, _ := separated(300, 6, 3, 7)
	run := func() *MGCPLResult {
		res, err := RunMGCPL(rows, card, MGCPLConfig{Rand: rand.New(rand.NewSource(11))})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("level counts differ: %v vs %v", a.Kappa(), b.Kappa())
	}
	for li := range a.Levels {
		for i := range a.Levels[li].Labels {
			if a.Levels[li].Labels[i] != b.Levels[li].Labels[i] {
				t.Fatalf("level %d object %d differs", li, i)
			}
		}
	}
}

func TestMGCPLEdgeCases(t *testing.T) {
	t.Run("empty data", func(t *testing.T) {
		if _, err := RunMGCPL(nil, nil, MGCPLConfig{Rand: rand.New(rand.NewSource(1))}); err == nil {
			t.Error("want error")
		}
	})
	t.Run("nil rand", func(t *testing.T) {
		if _, err := RunMGCPL([][]int{{0}}, []int{1}, MGCPLConfig{}); err != ErrNoRand {
			t.Errorf("want ErrNoRand, got %v", err)
		}
	})
	t.Run("identical objects keep eliminating clusters", func(t *testing.T) {
		// Every partition of identical objects is equally good, so the
		// exact final k is unconstrained — but the competition must still
		// eliminate most of the k0 = √50 ≈ 8 initial clusters and return a
		// valid partition.
		rows := make([][]int, 50)
		for i := range rows {
			rows[i] = []int{1, 0, 1}
		}
		res, err := RunMGCPL(rows, []int{2, 2, 2}, MGCPLConfig{Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Final().K; got > 4 {
			t.Errorf("identical data: final k = %d, want ≤ 4 (kappa %v)", got, res.Kappa())
		}
	})
	t.Run("k0 larger than n is clamped", func(t *testing.T) {
		rows := [][]int{{0}, {1}, {0}, {1}}
		res, err := RunMGCPL(rows, []int{2}, MGCPLConfig{InitialK: 100, Rand: rand.New(rand.NewSource(4))})
		if err != nil {
			t.Fatal(err)
		}
		if res.Final().K > 4 {
			t.Errorf("k exceeded n: %d", res.Final().K)
		}
	})
}

func TestMGCPLEncodingShape(t *testing.T) {
	rows, card, _ := separated(200, 6, 3, 9)
	res, err := RunMGCPL(rows, card, MGCPLConfig{Rand: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	enc := res.Encoding()
	if len(enc) != len(rows) {
		t.Fatalf("encoding rows = %d, want %d", len(enc), len(rows))
	}
	for i, row := range enc {
		if len(row) != res.Sigma() {
			t.Fatalf("encoding row %d width = %d, want sigma = %d", i, len(row), res.Sigma())
		}
		for j, v := range row {
			if v != res.Levels[j].Labels[i] {
				t.Fatal("encoding column does not match level labels")
			}
		}
	}
}

func TestSigmoidWeight(t *testing.T) {
	// Eq. (11): u(δ) = 1/(1+e^{−10δ+5}).
	cases := map[float64]float64{
		0.5: 0.5,
		1:   1 / (1 + math.Exp(-5)),
		0:   1 / (1 + math.Exp(5)),
	}
	for in, want := range cases {
		if got := sigmoidWeight(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("u(%v) = %v, want %v", in, got, want)
		}
	}
	if sigmoidWeight(3) <= sigmoidWeight(0.2) {
		t.Error("sigmoid must be increasing")
	}
}

// TestPooledEncodingIndexesOnce bounds the bytes PooledEncoding allocates on
// a data set whose index outweighs everything else a run allocates: 1,024
// rows of 512 features hold 2 MiB of term-row offsets, while every epoch of
// every repeat, at k₀ = 2, allocates well under a tenth of that. Three repeats
// of several epochs each stay under twice the index's own bytes only if one
// index serves them all.
func TestPooledEncodingIndexesOnce(t *testing.T) {
	const n, d = 1024, 512
	rng := rand.New(rand.NewSource(17))
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, d)
		for r := range rows[i] {
			rows[i][r] = rng.Intn(2)
		}
	}
	card := make([]int, d)
	for r := range card {
		card[r] = 2
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	index := allocated(func() {
		if _, err := similarity.NewIndex(rows, card); err != nil {
			t.Fatal(err)
		}
	})
	var levels int
	pooled := allocated(func() {
		enc, _, err := PooledEncoding(rows, card, MGCPLConfig{InitialK: 2, Workers: 2, Rand: rand.New(rand.NewSource(3))}, 3)
		if err != nil {
			t.Fatal(err)
		}
		levels = len(enc[0])
	})
	if pooled >= 2*index {
		t.Fatalf("PooledEncoding allocated %d bytes over %d levels, the index alone %d: the rows were indexed more than once", pooled, levels, index)
	}
}
