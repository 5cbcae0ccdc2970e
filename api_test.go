package mcdc_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mcdc"
)

func TestNewDataset(t *testing.T) {
	ds, err := mcdc.NewDataset("x", [][]int{{0, 1}, {1, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.D() != 2 || ds.Features[0].Cardinality() != 3 {
		t.Fatalf("shape wrong: %s", ds)
	}
	if _, err := mcdc.NewDataset("x", nil); err == nil {
		t.Error("empty rows: want error")
	}
	if _, err := mcdc.NewDataset("x", [][]int{{0}, {0, 1}}); err == nil {
		t.Error("ragged rows: want error")
	}
}

func TestClusterInputValidation(t *testing.T) {
	ds := mcdc.SyntheticDataset("t", 50, 4, 2, 1)
	if _, err := mcdc.Cluster(ds, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := mcdc.Cluster(nil, 2); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := mcdc.Explore(nil); err == nil {
		t.Error("nil dataset: want error")
	}
}

func TestBuiltinRegistry(t *testing.T) {
	names := mcdc.BuiltinNames()
	if len(names) != 8 {
		t.Fatalf("want 8 builtin data sets, got %v", names)
	}
	ds, err := mcdc.Builtin("Bal.", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 625 {
		t.Errorf("Bal. n = %d, want 625", ds.N())
	}
	if _, err := mcdc.Builtin("nope", 1); err == nil {
		t.Error("unknown builtin: want error")
	}
}

func TestEnhancerVariants(t *testing.T) {
	ds := mcdc.SyntheticDataset("t", 300, 8, 3, 2)
	for name, fc := range map[string]mcdc.FinalClusterer{
		"GUDMM":   mcdc.EnhanceGUDMM,
		"FKMAWCW": mcdc.EnhanceFKMAWCW,
	} {
		// GUDMM's own initialization is run-to-run unstable (the instability
		// MCDC's ensemble is designed to paper over), so instead of pinning
		// one lucky seed this asserts robustness: most of several seeds must
		// recover the separated structure.
		good := 0
		for seed := int64(1); seed <= 5; seed++ {
			res, err := mcdc.Cluster(ds, 3, mcdc.WithSeed(seed), mcdc.WithFinalClusterer(fc))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Labels) != ds.N() {
				t.Fatalf("%s: %d labels", name, len(res.Labels))
			}
			if res.Theta != nil {
				t.Errorf("%s: Theta must be nil for custom final clusterers", name)
			}
			acc, err := mcdc.Accuracy(ds.Labels, res.Labels)
			if err != nil {
				t.Fatal(err)
			}
			if acc >= 0.8 {
				good++
			}
		}
		// 4/5 is the tightest floor the current pipeline meets: GUDMM's own
		// initialization loses the structure on roughly one seed in ten
		// regardless of the encoding fed to it.
		if good < 4 {
			t.Errorf("%s: only %d/5 seeds reached ACC ≥ 0.8 on separated data", name, good)
		}
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	content := "a,b,class\nx,1,p\ny,2,q\nx,2,p\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := mcdc.ReadCSVFile(path, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.D() != 2 || ds.NumClasses() != 2 {
		t.Fatalf("shape: %s", ds)
	}
	if _, err := mcdc.ReadCSVFile(filepath.Join(dir, "missing.csv"), true, -1); err == nil {
		t.Error("missing file: want error")
	}
}

func TestPublicStreamWrapper(t *testing.T) {
	ds := mcdc.SyntheticDataset("t", 400, 6, 2, 4)
	sc, err := mcdc.NewStreamClusterer(mcdc.StreamConfig{
		Cardinalities: ds.Cardinalities(),
		WindowSize:    150,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ds.Rows {
		if _, err := sc.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if sc.ModelEpoch() == 0 {
		t.Error("stream never learned a model")
	}
	if sc.K() < 1 {
		t.Error("no clusters in the model")
	}
	if len(sc.Kappa()) == 0 {
		t.Error("no granularity series")
	}
}

func TestPublicActiveWrappers(t *testing.T) {
	ds := mcdc.SyntheticDataset("t", 500, 8, 3, 6)
	mg, err := mcdc.Explore(ds, mcdc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := mcdc.SelectQueries(ds, mg, mg.EstimatedK()+2)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		t.Fatal("no queries")
	}
	answers := map[int]int{}
	for _, q := range queries {
		answers[q.Index] = ds.Labels[q.Index]
	}
	pred, err := mcdc.PropagateLabels(ds, mg, answers)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := mcdc.Accuracy(ds.Labels, pred)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Errorf("active-learning accuracy = %v with %d labels, want ≥ 0.7", acc, len(answers))
	}
}

func TestEnsembleOption(t *testing.T) {
	ds := mcdc.SyntheticDataset("t", 200, 6, 2, 8)
	// Ensemble of 1 must still work (bare Algorithm 1 + 2).
	res, err := mcdc.Cluster(ds, 2, mcdc.WithSeed(1), mcdc.WithEnsemble(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != ds.N() {
		t.Fatalf("labels = %d", len(res.Labels))
	}
}

// TestOneRowDataset checks that a one-row data set is one cluster of one
// object at every step, instead of a panic: InitialK's floor of 2 is clamped
// to n.
func TestOneRowDataset(t *testing.T) {
	row := []int{1, 0, 2}
	ds, err := mcdc.NewDataset("one", [][]int{row})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := mcdc.Explore(ds, mcdc.WithSeed(1))
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(mg.Kappa) != 1 || mg.Kappa[0] != 1 {
		t.Errorf("Explore: kappa %v, want [1]", mg.Kappa)
	}
	res, err := mcdc.Cluster(ds, 1, mcdc.WithSeed(1))
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(res.Labels) != 1 || res.Labels[0] != 0 {
		t.Fatalf("Cluster: labels %v, want [0]", res.Labels)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	a, err := m.Assign(row)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if a.Cluster != 0 || a.Similarity != 1 {
		t.Errorf("Assign: cluster %d similarity %v, want cluster 0 similarity 1", a.Cluster, a.Similarity)
	}
}

// TestARISingleObject checks the limit case of two trivial identical
// partitions of one object: ARI is 1, not 0/0.
func TestARISingleObject(t *testing.T) {
	if got, err := mcdc.ARI([]int{0}, []int{0}); err != nil || got != 1 {
		t.Errorf("ARI([0], [0]) = %v, %v; want 1, nil", got, err)
	}
	s, err := mcdc.Evaluate([]int{0}, []int{0})
	if err != nil || s.ARI != 1 {
		t.Errorf("Evaluate([0], [0]): ARI %v, %v; want 1, nil", s.ARI, err)
	}
}

// TestHierarchyParentsRepeat checks that the nested tree does not depend on
// map order: on Bal. with Explore seed 2, where some fine clusters split
// their objects evenly between coarse ones, 30 calls give one parent list.
func TestHierarchyParentsRepeat(t *testing.T) {
	ds, err := mcdc.Builtin("Bal.", 1)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := mcdc.Explore(ds, mcdc.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	parents := func() []int {
		h := mg.Hierarchy()
		out := make([]int, len(h.Nodes))
		for i, n := range h.Nodes {
			out[i] = n.Parent
		}
		return out
	}
	want := parents()
	for call := 1; call < 30; call++ {
		if got := parents(); !slices.Equal(got, want) {
			t.Fatalf("call %d: parents %v, first call %v", call, got, want)
		}
	}
}
