package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/model"
)

// adversarialRows draws rows against the schema with missing values and
// out-of-domain codes mixed in — the traffic shape the packed probe plan's
// index build must filter exactly like the ProbeSim slow path does.
func adversarialRows(rng *rand.Rand, n int, card []int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		row := make([]int, len(card))
		for r, m := range card {
			switch rng.Intn(8) {
			case 0:
				row[r] = categorical.Missing
			case 1:
				row[r] = m + rng.Intn(2) // above the schema's cardinality
			default:
				row[r] = rng.Intn(m)
			}
		}
		rows[i] = row
	}
	return rows
}

// TestPooledAssignerPackedProbe pins the serving daemon's pooled-assigner
// path against Snapshot.Assign on adversarial traffic, then hot-swaps to a
// model with a wider feature schema and back — exercising the Assigner's
// probe-index scratch regrowth across Bind/Unbind cycles. Clusters and
// similarity floats must be bit-identical between HTTP and in-process.
func TestPooledAssignerPackedProbe(t *testing.T) {
	narrow, _, _ := trainModel(t, 200, 6, 3, 17)
	wide, _, _ := trainModel(t, 200, 14, 3, 18)
	dir := t.TempDir()
	narrowPath := filepath.Join(dir, "narrow.bin")
	widePath := filepath.Join(dir, "wide.bin")
	if err := narrow.SaveFile(narrowPath); err != nil {
		t.Fatal(err)
	}
	if err := wide.SaveFile(widePath); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	rng := rand.New(rand.NewSource(23))
	load := func(path string) {
		t.Helper()
		resp, data := post(t, ts.URL+"/v1/models", map[string]string{"name": "packed", "path": path})
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: %d %s", path, resp.StatusCode, data)
		}
	}
	check := func(snap *model.Snapshot) {
		t.Helper()
		for _, row := range adversarialRows(rng, 80, snap.Cardinalities) {
			resp, data := post(t, ts.URL+"/v1/assign", map[string]any{"model": "packed", "row": row})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("assign %v: %d %s", row, resp.StatusCode, data)
			}
			var got assignResponse
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			want, err := snap.Assign(row)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cluster != want.Cluster {
				t.Fatalf("row %v: served cluster %d, in-process %d", row, got.Cluster, want.Cluster)
			}
			if math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) {
				t.Fatalf("row %v: served similarity %v, in-process %v (bits differ)",
					row, got.Similarity, want.Similarity)
			}
		}
	}

	// Narrow first: pooled assigners bind their scratches at 6 features.
	load(narrowPath)
	check(narrow)

	// Hot-swap the same serving name to the 14-feature model: every pooled
	// assigner must regrow its probe-index scratch on next Bind.
	load(widePath)
	check(wide)

	// And back down: shrinking reuses the wide scratch without reallocating.
	load(narrowPath)
	check(narrow)
}
