package linkage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/metrics"
	"mcdc/internal/similarity"
)

// chainMatrix: four points on a line at 0, 1, 3, 7.
func chainMatrix() *similarity.Condensed {
	pos := []float64{0, 1, 3, 7}
	d := similarity.NewCondensed(len(pos), 0)
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			d.Set(i, j, pos[j]-pos[i])
		}
	}
	return d
}

func TestSingleLinkageMergeOrder(t *testing.T) {
	den, err := BuildCondensed(chainMatrix(), Single)
	if err != nil {
		t.Fatal(err)
	}
	heights := den.Heights()
	want := []float64{1, 2, 4} // 0-1 at 1, {01}-2 at 2, {012}-3 at 4
	if !reflect.DeepEqual(heights, want) {
		t.Errorf("single-linkage heights = %v, want %v", heights, want)
	}
}

func TestCompleteLinkageMergeOrder(t *testing.T) {
	den, err := BuildCondensed(chainMatrix(), Complete)
	if err != nil {
		t.Fatal(err)
	}
	heights := den.Heights()
	want := []float64{1, 3, 7} // farthest-pair heights
	if !reflect.DeepEqual(heights, want) {
		t.Errorf("complete-linkage heights = %v, want %v", heights, want)
	}
}

func TestAverageLinkageBetweenSingleAndComplete(t *testing.T) {
	m := chainMatrix()
	s, _ := BuildCondensed(m, Single)
	a, _ := BuildCondensed(m, Average)
	c, _ := BuildCondensed(m, Complete)
	hs, ha, hc := s.Heights(), a.Heights(), c.Heights()
	for i := range ha {
		if ha[i] < hs[i]-1e-12 || ha[i] > hc[i]+1e-12 {
			t.Errorf("average height %d = %v outside [single %v, complete %v]", i, ha[i], hs[i], hc[i])
		}
	}
}

func TestMonotonicHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 30
	d := similarity.NewCondensed(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, rng.Float64())
		}
	}
	// Single, complete, and average linkage are all monotone (no Lance-
	// Williams inversions).
	for _, method := range []Method{Single, Complete, Average} {
		den, err := BuildCondensed(d, method)
		if err != nil {
			t.Fatal(err)
		}
		h := den.Heights()
		if !sort.Float64sAreSorted(h) {
			t.Errorf("%v linkage heights not monotone: %v", method, h)
		}
	}
}

func TestCutProducesRequestedClusters(t *testing.T) {
	den, err := BuildCondensed(chainMatrix(), Single)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		labels := den.Cut(k)
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if len(distinct) != k {
			t.Errorf("Cut(%d) produced %d clusters: %v", k, len(distinct), labels)
		}
	}
	// Cut(2) must separate {0,1,2} from {3}.
	labels := den.Cut(2)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] == labels[3] {
		t.Errorf("Cut(2) = %v, want {0,1,2} vs {3}", labels)
	}
}

func TestHierarchicalOnCategoricalData(t *testing.T) {
	ds := datasets.Synthetic("t", 150, 8, 3, 0.92, rand.New(rand.NewSource(51)))
	den, err := BuildCondensed(HammingCondensed(ds.Rows), Average)
	if err != nil {
		t.Fatal(err)
	}
	labels := den.Cut(3)
	acc, err := metrics.Accuracy(ds.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("average-linkage ACC = %v, want ≥ 0.85 on separated data", acc)
	}
	if k := den.NaturalCut(10); k < 2 || k > 10 {
		t.Errorf("NaturalCut = %d, want within [2,10]", k)
	}
}

// builders names both engines with an explicit worker count, for the tests
// that hold every entry point to one contract.
var builders = []struct {
	name  string
	build func(*similarity.Condensed, Method, int) (*Dendrogram, error)
}{
	{"scan", BuildCondensedWorkers},
	{"chain", BuildChainWorkers},
}

func TestBuildErrors(t *testing.T) {
	for _, b := range builders {
		if _, err := b.build(similarity.NewCondensed(0, 0), Single, 1); err == nil {
			t.Errorf("%s: empty matrix: want error", b.name)
		}
		if _, err := b.build(chainMatrix(), Method(99), 1); err == nil {
			t.Errorf("%s: unknown method: want error", b.name)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Single.String() != "single" || Complete.String() != "complete" || Average.String() != "average" {
		t.Error("Method.String broken")
	}
}

// sameDendrogram asserts two dendrograms are bit-for-bit identical: same
// merge pairs, parents, and (exact float) heights.
func sameDendrogram(t *testing.T, a, b *Dendrogram, context string) {
	t.Helper()
	if a.N != b.N || len(a.Merges) != len(b.Merges) {
		t.Fatalf("%s: shape differs: N %d vs %d, %d vs %d merges", context, a.N, b.N, len(a.Merges), len(b.Merges))
	}
	for s := range a.Merges {
		if a.Merges[s] != b.Merges[s] {
			t.Fatalf("%s: merge %d differs: %+v vs %+v", context, s, a.Merges[s], b.Merges[s])
		}
	}
}

// TestBuildCondensedParallelEquivalence pins the parallelized nearest-pair
// scan: the dendrogram must be identical at parallelism 1, 2, and GOMAXPROCS.
func TestBuildCondensedParallelEquivalence(t *testing.T) {
	ds := datasets.Synthetic("t", 180, 6, 3, 0.75, rand.New(rand.NewSource(53)))
	cond := HammingCondensedWorkers(ds.Rows, 1)
	for _, method := range []Method{Single, Complete, Average} {
		seq, err := BuildCondensedWorkers(cond, method, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 0} {
			par, err := BuildCondensedWorkers(cond, method, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameDendrogram(t, seq, par, method.String())
		}
	}
}

// TestBuildCondensedErrors holds the GOMAXPROCS entry point to the same
// error cases.
func TestBuildCondensedErrors(t *testing.T) {
	if _, err := BuildCondensed(similarity.NewCondensed(0, 0), Single); err == nil {
		t.Error("empty condensed matrix: want error")
	}
	if _, err := BuildCondensed(similarity.NewCondensed(3, 0), Method(99)); err == nil {
		t.Error("unknown method: want error")
	}
}
