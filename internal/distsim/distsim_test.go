package distsim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcdc/internal/categorical"
)

func TestPlanPreservesLocalityAndBalances(t *testing.T) {
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = i % 20 // 20 equal clusters
	}
	p, err := Plan(labels, 4)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := len(p.Shards); got != 20 {
		t.Fatalf("shards = %d, want 20", got)
	}
	nodeOf := p.ObjectNodes(len(labels))
	loss, err := LocalityLoss(labels, nodeOf, 4)
	if err != nil {
		t.Fatalf("LocalityLoss: %v", err)
	}
	if loss != 0 {
		t.Errorf("locality loss = %v, want 0 (clusters must never be split)", loss)
	}
	if imb := p.Imbalance(); imb > 1.05 {
		t.Errorf("imbalance = %v, want ≤ 1.05 for equal clusters", imb)
	}
}

func TestPlanSkewedClusters(t *testing.T) {
	// One giant cluster and many small ones.
	labels := make([]int, 0, 1100)
	for i := 0; i < 800; i++ {
		labels = append(labels, 0)
	}
	for c := 1; c <= 30; c++ {
		for i := 0; i < 10; i++ {
			labels = append(labels, c)
		}
	}
	p, err := Plan(labels, 3)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// The giant cluster dominates one node; the rest must share the others.
	nonGiant := 0
	for nd, load := range p.Load {
		if load < 800 {
			nonGiant++
		} else if load != 800 {
			t.Errorf("node %d load = %d, want exactly the giant cluster (800)", nd, load)
		}
	}
	if nonGiant != 2 {
		t.Errorf("expected 2 non-giant nodes, got %d (loads %v)", nonGiant, p.Load)
	}
}

func TestRandomPlacementLosesLocality(t *testing.T) {
	labels := make([]int, 500)
	for i := range labels {
		labels[i] = i % 10
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, len(labels))
	for i := range random {
		random[i] = rng.Intn(5)
	}
	loss, err := LocalityLoss(labels, random, 5)
	if err != nil {
		t.Fatalf("LocalityLoss: %v", err)
	}
	if loss < 0.7 {
		t.Errorf("random placement locality loss = %v, want ≈ 1−1/nodes = 0.8", loss)
	}
}

func TestNodeCatalogGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := NodeCatalog(200, 4, rng)
	if err := cat.Validate(); err != nil {
		t.Fatalf("invalid catalog: %v", err)
	}
	if cat.N() != 200 || cat.NumClasses() != 4 {
		t.Fatalf("catalog n=%d classes=%d, want 200/4", cat.N(), cat.NumClasses())
	}
	// Perfect grouping scores 1.0; the identity labeling is perfect.
	consistency, err := GroupConsistency(cat.Labels, cat.Labels)
	if err != nil {
		t.Fatalf("GroupConsistency: %v", err)
	}
	if consistency != 1 {
		t.Errorf("self-consistency = %v, want 1", consistency)
	}
}

// newTestJob builds a small data set, labeling, and placement.
func newTestJob(t *testing.T, nodes int) ([][]int, []int, *Placement) {
	t.Helper()
	rows := make([][]int, 300)
	labels := make([]int, len(rows))
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		labels[i] = i % 12
		rows[i] = []int{labels[i] % 4, rng.Intn(3), rng.Intn(3)}
	}
	p, err := Plan(labels, nodes)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return rows, []int{4, 3, 3}, p
}

// TestComputeStatsCohesion pins the cohesion summary a worker attaches to
// every shard: mean pairwise simple-matching similarity, with singletons
// perfectly cohesive by convention. Beyond three exact cases, the closed
// form over value counts must agree with a brute-force loop over all pairs
// of rows on random shards with Missing cells.
func TestComputeStatsCohesion(t *testing.T) {
	card := []int{2, 3}
	uniform := [][]int{{1, 2}, {1, 2}, {1, 2}}
	if st := computeStats(0, uniform, card); st.Cohesion != 1 {
		t.Errorf("uniform shard cohesion = %v, want 1", st.Cohesion)
	}
	if st := computeStats(1, [][]int{{0, 1}}, card); st.Cohesion != 1 {
		t.Errorf("singleton shard cohesion = %v, want 1", st.Cohesion)
	}
	// Three rows, pairwise matches 1/2, 0/2, 1/2 -> mean 1/3.
	mixed := [][]int{{0, 1}, {0, 2}, {1, 2}}
	if st := computeStats(2, mixed, card); st.Cohesion != 1.0/3.0 {
		t.Errorf("mixed shard cohesion = %v, want 1/3", st.Cohesion)
	}

	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		n, d := 2+rng.Intn(150), 1+rng.Intn(20)
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(5)
		}
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, d)
			for r := range rows[i] {
				rows[i][r] = rng.Intn(card[r])
				if rng.Intn(10) == 0 {
					rows[i][r] = categorical.Missing
				}
			}
		}
		// The oracle walks every pair of rows and counts the features on
		// which both hold the same non-missing value. Summing the counts as
		// integers keeps it exact, so the mean is the correctly rounded
		// quotient, which the closed form must reproduce bit for bit (a
		// float sum of per-pair ratios drifts by ~n·ε on its own).
		matches := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for r := 0; r < d; r++ {
					if rows[i][r] == rows[j][r] && rows[i][r] != categorical.Missing {
						matches++
					}
				}
			}
		}
		want := float64(matches) / float64(d*n*(n-1)/2)
		if got := computeStats(trial, rows, card).Cohesion; got != want {
			t.Fatalf("trial %d (n=%d, d=%d): cohesion %v, pair loop %v", trial, n, d, got, want)
		}
	}
}

// TestStatsCoversEveryShard: Stats returns one entry per shard, in shard
// order, each the statistics of that shard's rows, and merging them counts
// every row once.
func TestStatsCoversEveryShard(t *testing.T) {
	rows, card, plan := newTestJob(t, 3)
	stats, err := Stats(rows, card, plan)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(stats) != len(plan.Shards) {
		t.Fatalf("got %d shard stats, want %d", len(stats), len(plan.Shards))
	}
	for i, s := range plan.Shards {
		shard := make([][]int, 0, len(s.Objects))
		for _, obj := range s.Objects {
			shard = append(shard, rows[obj])
		}
		if want := computeStats(s.ID, shard, card); !reflect.DeepEqual(stats[i], want) {
			t.Errorf("stats[%d] = %+v, want %+v", i, stats[i], want)
		}
	}
	freq, total := MergeStats(stats, card)
	if total != len(rows) {
		t.Errorf("merged count = %d, want %d", total, len(rows))
	}
	if want := computeStats(0, rows, card).Freq; !reflect.DeepEqual(freq, want) {
		t.Errorf("merged histograms = %v, want %v", freq, want)
	}
}

// TestStatsRejectsMalformedInput: rows that do not fit their schema (the
// wrong number of values, a value outside its feature's domain, a negative
// cardinality) are refused before any shard is cut, naming the row, feature
// and value. Without the check computeStats would index past a value
// histogram, or size one negatively, and panic.
func TestStatsRejectsMalformedInput(t *testing.T) {
	oneShard := func(n int) *Placement {
		objs := make([]int, n)
		for i := range objs {
			objs[i] = i
		}
		return &Placement{Shards: []Shard{{ID: 5, Objects: objs}}}
	}
	for _, tc := range []struct {
		name string
		rows [][]int
		card []int
		plan *Placement
		want []string
	}{
		{"long row", [][]int{{0, 1, 1}, {1, 0, 0}}, []int{2, 2}, oneShard(2), []string{"row 0", "3 values"}},
		{"short row", [][]int{{0, 1}, {1}}, []int{2, 2}, oneShard(2), []string{"row 1", "1 values"}},
		{"value past domain", [][]int{{0, 1}, {1, 2}}, []int{2, 2}, oneShard(2), []string{"row 1 feature 1", "value 2"}},
		{"negative value", [][]int{{-2, 1}}, []int{2, 2}, oneShard(1), []string{"row 0 feature 0", "value -2"}},
		{"negative cardinality", [][]int{{0, -1}}, []int{2, -1}, oneShard(1), []string{"feature 1", "cardinality -1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, err := Stats(tc.rows, tc.card, tc.plan)
			if err == nil {
				t.Fatalf("malformed input accepted: %+v", stats)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}

// TestStatsRejectsMalformedJob: on a planned job, a bad row deep in the data
// is refused naming its row and feature, a placement naming an object past
// the last row is refused naming the shard and object, and an empty
// placement is refused. Without the object check computeStats would index
// past the rows and panic.
func TestStatsRejectsMalformedJob(t *testing.T) {
	rows, card, plan := newTestJob(t, 2)
	outOfDomain := append([][]int(nil), rows...)
	outOfDomain[17] = []int{0, 3, 1}
	pastEnd := &Placement{Shards: []Shard{{ID: 0, Objects: []int{0, 1}}, {ID: 1, Objects: []int{2, 5, 3}}}}
	for _, tc := range []struct {
		name string
		rows [][]int
		plan *Placement
		want string
	}{
		{"a value outside its domain", outOfDomain, plan, "row 17 feature 1"},
		{"an object past the last row", rows[:5], pastEnd, "shard 1 object 5"},
		{"an empty placement", rows, &Placement{}, "empty placement"},
	} {
		stats, err := Stats(tc.rows, card, tc.plan)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Stats on %s: %+v, %v", tc.name, stats, err)
		}
	}
}

// TestGroupConsistencyDeterministic: the per-group fractions are summed in
// one fixed order, so every call on one input gives the same bits.
func TestGroupConsistencyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	profiles, groups := make([]int, 1000), make([]int, 1000)
	for i := range profiles {
		profiles[i], groups[i] = rng.Intn(7), rng.Intn(13)
	}
	first, err := GroupConsistency(profiles, groups)
	if err != nil {
		t.Fatalf("GroupConsistency: %v", err)
	}
	for call := 1; call < 200; call++ {
		got, err := GroupConsistency(profiles, groups)
		if err != nil {
			t.Fatalf("GroupConsistency: %v", err)
		}
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d gave %v (bits %#x), call 0 gave %v (bits %#x)",
				call, got, math.Float64bits(got), first, math.Float64bits(first))
		}
	}
}
