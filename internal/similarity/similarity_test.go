package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mcdc/internal/categorical"
)

func smallTables(t *testing.T) *Tables {
	t.Helper()
	rows := [][]int{
		{0, 1}, // cluster 0
		{0, 0}, // cluster 0
		{1, 1}, // cluster 1
		{1, 0}, // unassigned at first
	}
	tb, err := NewTables(rows, []int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Add(0, 0)
	tb.Add(1, 0)
	tb.Add(2, 1)
	return tb
}

func TestSimKnownValues(t *testing.T) {
	tb := smallTables(t)
	// Object 3 = {1,0}: cluster 0 = {{0,1},{0,0}} → feature 0 freq of value
	// 1 is 0/2, feature 1 freq of value 0 is 1/2 → sim = (0 + 0.5)/2 = 0.25.
	if got := tb.Sim(3, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Sim(3,0) = %v, want 0.25", got)
	}
	// Cluster 1 = {{1,1}} → feature 0: 1/1; feature 1 value 0: 0/1 → 0.5.
	if got := tb.Sim(3, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sim(3,1) = %v, want 0.5", got)
	}
}

func TestLOOExcludesSelf(t *testing.T) {
	tb := smallTables(t)
	// Object 2 is the only member of cluster 1: LOO similarity must be 0.
	if got := tb.SimLOO(2, 1, true); got != 0 {
		t.Errorf("SimLOO(singleton member) = %v, want 0", got)
	}
	// Non-member LOO equals plain similarity.
	if got, want := tb.SimLOO(3, 1, false), tb.Sim(3, 1); got != want {
		t.Errorf("SimLOO(non-member) = %v, want %v", got, want)
	}
	// Member of cluster 0: LOO excludes its own contribution.
	// Object 0 = {0,1}; cluster 0 minus object 0 = {{0,0}} → f0: 1/1, f1:
	// value 1 count 0/1 → (1+0)/2 = 0.5.
	if got := tb.SimLOO(0, 0, true); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SimLOO(member) = %v, want 0.5", got)
	}
}

func TestAddRemoveInverse(t *testing.T) {
	rows := [][]int{{0, 1, 2}, {1, 1, 0}, {2, 0, 1}}
	tb, err := NewTables(rows, []int{3, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Add(0, 0)
	tb.Add(1, 0)
	before := []int{tb.Count(0, 0, 0), tb.Count(0, 1, 1), tb.Size(0)}
	tb.Add(2, 0)
	tb.Remove(2, 0)
	after := []int{tb.Count(0, 0, 0), tb.Count(0, 1, 1), tb.Size(0)}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("Add/Remove not inverse: %v vs %v", before, after)
	}
	tb.Move(1, 0, 1)
	if tb.Size(0) != 1 || tb.Size(1) != 1 {
		t.Errorf("Move: sizes = %d,%d, want 1,1", tb.Size(0), tb.Size(1))
	}
}

func TestFeatureWeightsSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, d := 5+r.Intn(40), 2+r.Intn(5)
		card := make([]int, d)
		for j := range card {
			card[j] = 2 + r.Intn(4)
		}
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, d)
			for j := range rows[i] {
				rows[i][j] = r.Intn(card[j])
			}
		}
		k := 2 + r.Intn(3)
		tb, err := NewTables(rows, card, k)
		if err != nil {
			return false
		}
		for i := range rows {
			tb.Add(i, r.Intn(k))
		}
		for l := 0; l < k; l++ {
			w := tb.FeatureWeights(l, nil)
			var sum float64
			for _, x := range w {
				if x < 0 || x > 1 {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestInterIntraBounds(t *testing.T) {
	tb := smallTables(t)
	tb.Add(3, 1)
	for l := 0; l < 2; l++ {
		for r := 0; r < 2; r++ {
			if a := tb.InterClusterDifference(r, l); a < 0 || a > 1+1e-12 {
				t.Errorf("alpha(%d,%d) = %v outside [0,1]", r, l, a)
			}
			if b := tb.IntraClusterSimilarity(r, l); b < 0 || b > 1+1e-12 {
				t.Errorf("beta(%d,%d) = %v outside [0,1]", r, l, b)
			}
		}
	}
}

func TestPerfectSeparationAlphaBeta(t *testing.T) {
	// Two clusters with disjoint values on feature 0: α = 1 (scaled), β = 1.
	rows := [][]int{{0}, {0}, {1}, {1}}
	tb, err := NewTables(rows, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Add(0, 0)
	tb.Add(1, 0)
	tb.Add(2, 1)
	tb.Add(3, 1)
	if a := tb.InterClusterDifference(0, 0); math.Abs(a-1) > 1e-12 {
		t.Errorf("alpha = %v, want 1 for disjoint clusters", a)
	}
	if b := tb.IntraClusterSimilarity(0, 0); math.Abs(b-1) > 1e-12 {
		t.Errorf("beta = %v, want 1 for pure cluster", b)
	}
}

func TestMissingValuesHandled(t *testing.T) {
	rows := [][]int{
		{0, categorical.Missing},
		{0, 1},
		{1, 0},
	}
	tb, err := NewTables(rows, []int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb.Add(0, 0)
	tb.Add(1, 0)
	tb.Add(2, 1)
	// Object 0's missing feature contributes nothing.
	got := tb.Sim(0, 0)
	// Feature 0: value 0 appears 2/2; feature 1 skipped → (1+0)/2 = 0.5.
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sim with missing = %v, want 0.5", got)
	}
	mode := tb.Mode(1)
	if mode[0] != 1 || mode[1] != 0 {
		t.Errorf("Mode(1) = %v, want [1 0]", mode)
	}
}

func TestNewTablesErrors(t *testing.T) {
	if _, err := NewTables(nil, []int{2}, 2); err == nil {
		t.Error("empty rows: want error")
	}
	if _, err := NewTables([][]int{{0}}, []int{2}, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := NewTables([][]int{{0}}, []int{0}, 1); err == nil {
		t.Error("zero cardinality: want error")
	}
	if _, err := NewTables([][]int{{0, 1}}, []int{2}, 1); err == nil {
		t.Error("row wider than schema: want error")
	}
	// Out-of-domain codes: 2 would alias into feature 1's cells (stride 3),
	// 99 and -3 would index outside the count tables.
	for _, row := range [][]int{{2, 0}, {0, 99}, {-3, 0}} {
		if _, err := NewTables([][]int{{0, 0}, row}, []int{2, 3}, 1); err == nil {
			t.Errorf("row %v outside cardinalities [2 3]: want error", row)
		}
	}
	if _, err := NewTables([][]int{{categorical.Missing, 2}}, []int{2, 3}, 1); err != nil {
		t.Errorf("missing and in-domain codes: %v", err)
	}
}

// TestSumTermsMatchesWeightedSimLOO pins the identity MGCPL's cached scoring
// rests on: for every non-member object, SumTerms over WeightedTerms equals
// WeightedSimLOO(…, false) under math.Float64bits, and after an object leaves
// a cluster, its plain similarity to it equals its leave-one-out similarity
// from before the move. Tables are random, with Missing cells, cardinalities
// below the stride, empty clusters, zero and uniform weights, and random
// Add/Remove sequences.
func TestSumTermsMatchesWeightedSimLOO(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n, d, k := 1+rng.Intn(40), 1+rng.Intn(6), 1+rng.Intn(5)
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(6)
		}
		rows := packedRandomRows(rng, n, card, []float64{0, 0.2, 0.6}[trial%3])
		tb, err := NewTables(rows, card, k)
		if err != nil {
			t.Fatal(err)
		}
		weights := make([][]float64, k)
		for l := range weights {
			w := make([]float64, d)
			for r := range w {
				switch rng.Intn(4) {
				case 0: // zero weight
				case 1:
					w[r] = 1 / float64(d)
				default:
					w[r] = rng.Float64()
				}
			}
			weights[l] = w
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		var terms []float64
		for step := 0; step < 3*n; step++ {
			i := rng.Intn(n)
			if from := assign[i]; from >= 0 {
				before := tb.WeightedSimLOO(i, from, weights[from], true)
				tb.Remove(i, from)
				assign[i] = -1
				if after := tb.WeightedSimLOO(i, from, weights[from], false); math.Float64bits(after) != math.Float64bits(before) {
					t.Fatalf("trial %d: object %d left cluster %d: plain %v, leave-one-out before %v", trial, i, from, after, before)
				}
			}
			if rng.Intn(4) > 0 {
				assign[i] = rng.Intn(k)
				tb.Add(i, assign[i])
			}
			for l := 0; l < k; l++ {
				if rng.Intn(3) == 0 {
					// Refresh the weights from the tables, as MGCPL does
					// after each pass (uniform for an empty cluster).
					tb.FeatureWeights(l, weights[l])
				}
				terms = tb.WeightedTerms(l, weights[l], terms)
				for j := range rows {
					if assign[j] == l {
						continue
					}
					got, want := tb.SumTerms(j, terms), tb.WeightedSimLOO(j, l, weights[l], false)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d: object %d cluster %d (size %d): SumTerms %v, WeightedSimLOO %v",
							trial, step, j, l, tb.Size(l), got, want)
					}
				}
			}
		}
	}
}

// TestLOOMatchesNaive cross-checks the incremental LOO similarity against a
// from-scratch computation on random data.
func TestLOOMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n, d := 4+r.Intn(30), 1+r.Intn(4)
		card := make([]int, d)
		for j := range card {
			card[j] = 2 + r.Intn(3)
		}
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, d)
			for j := range rows[i] {
				rows[i][j] = r.Intn(card[j])
			}
		}
		k := 2
		tb, _ := NewTables(rows, card, k)
		assign := make([]int, n)
		for i := range rows {
			assign[i] = r.Intn(k)
			tb.Add(i, assign[i])
		}
		i := r.Intn(n)
		l := assign[i]
		got := tb.SimLOO(i, l, true)
		// Naive: recompute frequencies over cluster l without object i.
		var want float64
		for rr := 0; rr < d; rr++ {
			cnt, seen := 0, 0
			for j := range rows {
				if j == i || assign[j] != l {
					continue
				}
				seen++
				if rows[j][rr] == rows[i][rr] {
					cnt++
				}
			}
			if seen > 0 {
				want += float64(cnt) / float64(seen)
			}
		}
		want /= float64(d)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: SimLOO = %v, naive = %v", trial, got, want)
		}
	}
}
