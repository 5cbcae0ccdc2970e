package active

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcdc/internal/core"
	"mcdc/internal/datasets"
)

func analysis(t *testing.T, rows [][]int, card []int, seed int64) *core.MGCPLResult {
	t.Helper()
	mg, err := core.RunMGCPL(rows, card, core.MGCPLConfig{Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

func TestQueriesCoverCoarseClusters(t *testing.T) {
	ds := datasets.Synthetic("t", 600, 8, 3, 0.9, rand.New(rand.NewSource(70)))
	mg := analysis(t, ds.Rows, ds.Cardinalities(), 1)
	budget := mg.Final().K + 2
	queries, err := SelectQueries(ds.Rows, mg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 || len(queries) > budget {
		t.Fatalf("got %d queries for budget %d", len(queries), budget)
	}
	// No fine cluster queried twice.
	seen := map[int]bool{}
	for _, q := range queries {
		if seen[q.FineCluster] {
			t.Errorf("fine cluster %d queried twice", q.FineCluster)
		}
		seen[q.FineCluster] = true
		if q.Index < 0 || q.Index >= ds.N() {
			t.Errorf("query index %d out of range", q.Index)
		}
		if q.Weight <= 0 {
			t.Errorf("query weight %d", q.Weight)
		}
	}
	// Every coarse cluster must be represented when the budget allows it.
	coarse := mg.Final()
	covered := map[int]bool{}
	for _, q := range queries {
		covered[coarse.Labels[q.Index]] = true
	}
	if len(covered) < coarse.K {
		t.Errorf("queries cover %d of %d coarse clusters", len(covered), coarse.K)
	}
}

func TestPropagateRecoversLabelsWithTinyBudget(t *testing.T) {
	ds := datasets.Synthetic("t", 800, 10, 4, 0.9, rand.New(rand.NewSource(71)))
	mg := analysis(t, ds.Rows, ds.Cardinalities(), 2)
	budget := 2 * mg.Final().K
	queries, err := SelectQueries(ds.Rows, mg, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: the ground-truth labels of the queried objects only.
	answers := make(map[int]int, len(queries))
	for _, q := range queries {
		answers[q.Index] = ds.Labels[q.Index]
	}
	pred, err := Propagate(ds.Rows, mg, answers)
	if err != nil {
		t.Fatal(err)
	}
	acc := 0
	for i := range pred {
		if pred[i] == ds.Labels[i] {
			acc++
		}
	}
	frac := float64(acc) / float64(ds.N())
	t.Logf("labeled %d of %d objects, propagated accuracy %.3f", len(answers), ds.N(), frac)
	if frac < 0.75 {
		t.Errorf("propagated accuracy = %v with %d labels, want ≥ 0.75", frac, len(answers))
	}
}

// TestSelectQueriesDeterministic: each fine cluster's coarse parent is
// its majority parent with ties to the smaller id, so one input always gives
// one query list. Bal. at MGCPL seed 2 has fine clusters with tied parents.
func TestSelectQueriesDeterministic(t *testing.T) {
	ds, err := datasets.Load("Bal.", 1)
	if err != nil {
		t.Fatal(err)
	}
	mg := analysis(t, ds.Rows, ds.Cardinalities(), 2)
	for _, budget := range []int{3, 5, 8, 13} {
		first, err := SelectQueries(ds.Rows, mg, budget)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call < 30; call++ {
			got, err := SelectQueries(ds.Rows, mg, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("budget %d: call %d gave %v, call 0 gave %v", budget, call, got, first)
			}
		}
	}
}

// TestPropagateCollidingAnswers: two answers in one fine cluster give the
// cluster their majority (ties to the smaller class) and each answered
// object keeps its own answer. On Car. at MGCPL seed 1, objects 0 and 1
// share fine cluster 0.
func TestPropagateCollidingAnswers(t *testing.T) {
	ds, err := datasets.Load("Car.", 1)
	if err != nil {
		t.Fatal(err)
	}
	mg := analysis(t, ds.Rows, ds.Cardinalities(), 1)
	if fine := mg.Levels[0].Labels; fine[0] != fine[1] {
		t.Fatalf("objects 0 and 1 are in fine clusters %d and %d, want one", fine[0], fine[1])
	}
	answers := map[int]int{0: 0, 1: 1}
	first, err := Propagate(ds.Rows, mg, answers)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 || first[1] != 1 {
		t.Fatalf("objects 0 and 1 labeled %d and %d, want their answers 0 and 1", first[0], first[1])
	}
	for call := 1; call < 100; call++ {
		got, err := Propagate(ds.Rows, mg, answers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d gave another labeling than call 0", call)
		}
	}
}

func TestActiveErrors(t *testing.T) {
	ds := datasets.Synthetic("t", 50, 4, 2, 0.9, rand.New(rand.NewSource(72)))
	mg := analysis(t, ds.Rows, ds.Cardinalities(), 3)
	if _, err := SelectQueries(ds.Rows, nil, 3); err == nil {
		t.Error("nil analysis: want error")
	}
	if _, err := SelectQueries(ds.Rows, mg, 0); err == nil {
		t.Error("zero budget: want error")
	}
	if _, err := Propagate(ds.Rows, mg, nil); err == nil {
		t.Error("no answers: want error")
	}
	if _, err := Propagate(ds.Rows, mg, map[int]int{999: 0}); err == nil {
		t.Error("out-of-range answer: want error")
	}
	for call := 0; call < 20; call++ {
		_, err := Propagate(ds.Rows, mg, map[int]int{999: 0, -1: 0})
		if err == nil || !strings.Contains(err.Error(), "index -1 ") {
			t.Fatalf("call %d: two out-of-range answers gave %v, want the smaller index named", call, err)
		}
	}
}
