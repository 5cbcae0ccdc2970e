package linkage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/similarity"
	"mcdc/internal/testenv"
)

// tieHeavyCondensed generates a random condensed dissimilarity matrix whose
// entries are drawn from a handful of dyadic levels (multiples of 1/8), so
// duplicated heights — the adversarial case for merge-order equivalence —
// occur in masses rather than by accident. The fill streams each source row
// through one scratch buffer via UpperRowInto, so the sweep allocates no
// per-row garbage even when called hundreds of times by the property test.
func tieHeavyCondensed(n int, rng *rand.Rand) *similarity.Condensed {
	src := similarity.NewCondensed(n, 0)
	levels := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			src.Set(i, j, float64(1+rng.Intn(levels))/8)
		}
	}
	// Round-trip through UpperRowInto: a copy built row by row from one
	// reusable scratch must reproduce the source exactly.
	dst := similarity.NewCondensed(n, 0)
	scratch := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		row := src.UpperRowInto(i, scratch)
		for jj, v := range row {
			dst.Set(i, i+1+jj, v)
		}
	}
	return dst
}

// chainMethods are the linkage rules the chain agglomerator supports.
var chainMethods = []Method{Single, Complete, Average}

// TestChainMatchesScanTieHeavy is the tentpole equivalence property test:
// across 100 seeded random tie-heavy matrices, the O(n²) chain agglomerator
// must produce the canonical dendrogram of the O(n³) scan oracle — identical
// merges, identical (exact) heights, identical Cut partitions — for every
// method, at parallelism 1, 2 and GOMAXPROCS.
func TestChainMatchesScanTieHeavy(t *testing.T) {
	workersList := []int{1, 2, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(41)
		c := tieHeavyCondensed(n, rng)
		for _, method := range chainMethods {
			oracle, err := BuildCondensedWorkers(c, method, 1)
			if err != nil {
				t.Fatal(err)
			}
			canon := oracle.Canonical()
			for _, workers := range workersList {
				chain, err := BuildChainWorkers(c, method, workers)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("seed %d n %d %v workers %d", seed, n, method, workers)
				sameDendrogram(t, canon, chain, ctx)
				for _, k := range []int{2, 3, 5} {
					if !reflect.DeepEqual(canon.Cut(k), chain.Cut(k)) {
						t.Fatalf("%s: Cut(%d) differs between scan oracle and chain", ctx, k)
					}
				}
			}
		}
	}
}

// TestChainMatchesScanOnData pins scan/chain equivalence on categorical
// benchmark-style data, whose normalized Hamming distances are naturally
// tie-heavy.
func TestChainMatchesScanOnData(t *testing.T) {
	ds := datasets.Synthetic("t", 220, 8, 3, 0.85, rand.New(rand.NewSource(77)))
	cond := HammingCondensed(ds.Rows)
	for _, method := range chainMethods {
		scan, err := BuildCondensed(cond, method)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := BuildChain(cond, method)
		if err != nil {
			t.Fatal(err)
		}
		sameDendrogram(t, scan.Canonical(), chain, method.String())
		for _, k := range []int{2, 3, 7} {
			if !reflect.DeepEqual(scan.Canonical().Cut(k), chain.Cut(k)) {
				t.Fatalf("%v: Cut(%d) differs between scan and chain", method, k)
			}
		}
	}
}

// TestScanOutputIsCanonical pins that the greedy scan emits merges already in
// canonical order — Canonical must be the identity on it (and idempotent on
// any dendrogram).
func TestScanOutputIsCanonical(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		c := tieHeavyCondensed(30, rng)
		for _, method := range chainMethods {
			den, err := BuildCondensedWorkers(c, method, 1)
			if err != nil {
				t.Fatal(err)
			}
			canon := den.Canonical()
			sameDendrogram(t, den, canon, fmt.Sprintf("seed %d %v", seed, method))
			sameDendrogram(t, canon, canon.Canonical(), "idempotence")
		}
	}
}

// TestCanonicalReordersPermutedMerges checks the relabelling directly: a
// hand-permuted emission of the same merge tree must canonicalize back to the
// scan's order.
func TestCanonicalReordersPermutedMerges(t *testing.T) {
	// Heights force the merge order (0,1)@1 then (2,3)@2 then joins@4; emit
	// the first two in swapped order with correspondingly swapped parent ids.
	scrambled := &Dendrogram{N: 4, Merges: []Merge{
		{A: 2, B: 3, Parent: 4, Height: 2},
		{A: 1, B: 0, Parent: 5, Height: 1}, // children deliberately reversed
		{A: 5, B: 4, Parent: 6, Height: 4},
	}}
	want := &Dendrogram{N: 4, Merges: []Merge{
		{A: 0, B: 1, Parent: 4, Height: 1},
		{A: 2, B: 3, Parent: 5, Height: 2},
		{A: 4, B: 5, Parent: 6, Height: 4},
	}}
	got := scrambled.Canonical()
	sameDendrogram(t, want, got, "permuted emission")
	if !reflect.DeepEqual(got.Cut(2), []int{0, 0, 1, 1}) {
		t.Fatalf("canonical Cut(2) = %v", got.Cut(2))
	}
}

// TestChainSmallFixtures pins the chain path on the hand-computable line
// matrix used by the scan's unit tests.
func TestChainSmallFixtures(t *testing.T) {
	c := chainMatrix()
	for _, tc := range []struct {
		method Method
		want   []float64
	}{
		{Single, []float64{1, 2, 4}},
		{Complete, []float64{1, 3, 7}},
	} {
		den, err := BuildChain(c, tc.method)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(den.Heights(), tc.want) {
			t.Errorf("%v chain heights = %v, want %v", tc.method, den.Heights(), tc.want)
		}
	}
	den, err := BuildChain(c, Single)
	if err != nil {
		t.Fatal(err)
	}
	if labels := den.Cut(2); labels[0] != labels[1] || labels[1] != labels[2] || labels[2] == labels[3] {
		t.Errorf("chain Cut(2) = %v, want {0,1,2} vs {3}", labels)
	}
}

// TestChainErrors mirrors the scan's error cases on the chain entry point.
func TestChainErrors(t *testing.T) {
	if _, err := BuildChain(similarity.NewCondensed(0, 0), Single); err == nil {
		t.Error("empty condensed matrix: want error")
	}
	if _, err := BuildChain(similarity.NewCondensed(3, 0), Method(99)); err == nil {
		t.Error("unknown method: want error")
	}
	bad := similarity.NewCondensed(3, 0)
	bad.Set(0, 2, math.NaN())
	if _, err := BuildChain(bad, Single); err == nil {
		t.Error("NaN entry: want error")
	}
}

// TestBuildRejectsInvalidEntries pins the input-validation contract on every
// entry point: NaN and negative dissimilarities are rejected with
// descriptive errors instead of silently corrupting the merge selection.
func TestBuildRejectsInvalidEntries(t *testing.T) {
	nan := chainMatrix()
	nan.Set(1, 2, math.NaN())
	neg := chainMatrix()
	neg.Set(0, 3, -0.5)
	for _, b := range builders {
		for _, method := range []Method{Single, Average} {
			if _, err := b.build(nan, method, 1); err == nil {
				t.Errorf("%s %v: NaN entry: want error", b.name, method)
			} else if !strings.Contains(err.Error(), "NaN") {
				t.Errorf("%s %v: NaN entry: error %q does not name the NaN", b.name, method, err)
			}
			if _, err := b.build(neg, method, 1); err == nil {
				t.Errorf("%s %v: negative entry: want error", b.name, method)
			}
		}
	}
}

// validDendrogram asserts structural well-formedness: sequential parent ids,
// children created before their parents, each node a child exactly once, and
// Cut(k) yielding exactly min(k, n) clusters.
func validDendrogram(t *testing.T, den *Dendrogram, context string) {
	t.Helper()
	used := make([]bool, den.N+len(den.Merges))
	for s, m := range den.Merges {
		if m.Parent != den.N+s {
			t.Fatalf("%s: merge %d has parent %d, want %d", context, s, m.Parent, den.N+s)
		}
		if m.A >= m.Parent || m.B >= m.Parent {
			t.Fatalf("%s: merge %d children (%d, %d) not created before parent %d", context, s, m.A, m.B, m.Parent)
		}
		for _, c := range []int{m.A, m.B} {
			if used[c] {
				t.Fatalf("%s: node %d merged twice", context, c)
			}
			used[c] = true
		}
	}
	for _, k := range []int{1, 2, 3, den.N} {
		labels := den.Cut(k)
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		want := min(k, den.N)
		if len(distinct) != want {
			t.Fatalf("%s: Cut(%d) produced %d clusters, want %d", context, k, len(distinct), want)
		}
	}
}

// TestChainOffGridStructurallyValid pins the floating-point worst case: on
// inputs OFF the binary grid (multiples of 0.1), derived average-linkage
// ties can round a parent's canonical height an ulp below its child's, and
// chain/scan may legitimately resolve a derived tie differently — but both
// engines must still emit structurally valid dendrograms (the canonical
// priority-topological pass repairs ulp-inverted parent/child pairs), with
// monotone-or-ulp-close heights and well-formed cuts.
func TestChainOffGridStructurallyValid(t *testing.T) {
	// 60 seeds is the PR-time smoke; the nightly deep suite sweeps all 300
	// (the historical off-grid failures clustered in no particular prefix,
	// so the smoke keeps a uniform slice, not a curated one).
	seeds := int64(60)
	if testenv.Nightly() {
		seeds = 300
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		n := 5 + rng.Intn(31)
		c := similarity.NewCondensed(n, 0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c.Set(i, j, float64(1+rng.Intn(3))/10) // {0.1, 0.2, 0.3}: off-grid
			}
		}
		for _, method := range chainMethods {
			chain, err := BuildChainWorkers(c, method, 1)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("chain seed %d n %d %v", seed, n, method)
			validDendrogram(t, chain, ctx)
			scan, err := BuildCondensedWorkers(c, method, 1)
			if err != nil {
				t.Fatal(err)
			}
			validDendrogram(t, scan.Canonical(), "scan canonical "+ctx)
		}
	}
}

// TestChainMatchesScanLarge is the nightly-only scale cross-check: at
// n = 5000 the O(n³) scan oracle takes minutes, far past the PR-time budget,
// but it is the only independent witness that the chain engine stays exact
// at the sizes the paper's experiments actually run. Rows are binary, so
// every average-linkage height is an exact dyadic rational and the
// chain/scan identity holds with no ulp caveats (the same trick
// TestChainLinkageEquivalence uses with the Vot. data set at small n).
// Run it locally with MCDC_NIGHTLY=1 (and without -race: the oracle is the
// slow part, not the memory model).
func TestChainMatchesScanLarge(t *testing.T) {
	if !testenv.Nightly() {
		t.Skip("n=5000 scan oracle runs only in the nightly deep suite (set MCDC_NIGHTLY=1)")
	}
	const n = 5000
	rng := rand.New(rand.NewSource(77))
	rows := make([][]int, n)
	for i := range rows {
		row := make([]int, 16)
		for r := range row {
			row[r] = rng.Intn(2)
		}
		rows[i] = row
	}
	c := HammingCondensedWorkers(rows, 0)
	scan, err := BuildCondensedWorkers(c, Average, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := scan.Canonical()
	chain, err := BuildChainWorkers(c, Average, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oracle.Merges, chain.Merges) {
		t.Fatal("n=5000: chain dendrogram differs from the scan oracle")
	}
	for _, k := range []int{2, 5, 16} {
		if !reflect.DeepEqual(oracle.Cut(k), chain.Cut(k)) {
			t.Fatalf("n=5000: Cut(%d) differs between chain and scan", k)
		}
	}
}
