package mcdc_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mcdc"
	"mcdc/internal/experiments"
)

// decodeLearnInput turns fuzz bytes into a small data set, its ground-truth
// classes, and a sought k:
//
//   - n = 1 + shape%16 rows, d = 1 + (shape/16)%6 features, k = 1 + kByte%5;
//   - the first d cell bytes give the cardinalities, 1 + b%5 each;
//   - each row then reads a header byte h: from row 1 on, h ≥ 0xc0 repeats
//     row h%i, and otherwise the row reads d cell bytes, b%(m+1) each, with
//     the value m standing for Missing;
//   - h%3 is the row's class.
//
// Bytes past the end of cells read as 0, so every input decodes.
func decodeLearnInput(kByte, shape uint8, cells []byte) (*mcdc.Dataset, []int, int) {
	next := func() byte {
		if len(cells) == 0 {
			return 0
		}
		b := cells[0]
		cells = cells[1:]
		return b
	}
	n, d, k := 1+int(shape)%16, 1+int(shape/16)%6, 1+int(kByte)%5
	ds := &mcdc.Dataset{Name: "fuzz", Features: make([]mcdc.Feature, d), Rows: make([][]int, n)}
	for r := range ds.Features {
		f := &ds.Features[r]
		f.Name = fmt.Sprintf("f%d", r)
		for v := 0; v < 1+int(next())%5; v++ {
			f.Values = append(f.Values, string(rune('a'+v)))
		}
	}
	truth := make([]int, n)
	for i := range ds.Rows {
		h := next()
		truth[i] = int(h) % 3
		if i > 0 && h >= 0xc0 {
			ds.Rows[i] = slices.Clone(ds.Rows[int(h)%i])
			continue
		}
		row := make([]int, d)
		for r := range row {
			m := ds.Features[r].Cardinality()
			if row[r] = int(next()) % (m + 1); row[r] == m {
				row[r] = mcdc.Missing
			}
		}
		ds.Rows[i] = row
	}
	return ds, truth, k
}

// checkLabels requires n labels in [0, k).
func checkLabels(t *testing.T, who string, labels []int, n, k int) {
	t.Helper()
	if len(labels) != n {
		t.Fatalf("%s: %d labels for %d rows", who, len(labels), n)
	}
	for i, l := range labels {
		if l < 0 || l >= k {
			t.Fatalf("%s: row %d labelled %d, want [0, %d)", who, i, l, k)
		}
	}
}

// checkErr fails on an error that carries a recovered panic.
func checkErr(t *testing.T, who string, err error) {
	t.Helper()
	if err != nil && strings.Contains(err.Error(), "panicked") {
		t.Fatalf("%s: %v", who, err)
	}
}

// FuzzLearn checks the learning API's input contract on small decoded data
// sets (decodeLearnInput): Missing cells, repeated rows, one row, k above
// n. For every input:
//
//   - nothing panics, and no error carries a recovered panic;
//   - Explore and Cluster either fail or label every row inside its range;
//   - Cluster at WithParallelism(1) and (2) is bit-identical: labels, θ and
//     every level;
//   - the model, written and read back, assigns every row as the original;
//   - every validity score of the labels against the decoded classes is
//     finite;
//   - the nine Table III methods either fail or label inside [0, k), ROCK
//     inside [0, n).
func FuzzLearn(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0x12), []byte{3, 2, 4, 0, 1, 2, 7, 1, 0, 0, 0xc0, 9, 2, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, kByte, shape uint8, cells []byte) {
		ds, truth, k := decodeLearnInput(kByte, shape, cells)
		n := ds.N()

		mg, err := mcdc.Explore(ds, mcdc.WithSeed(seed))
		checkErr(t, "Explore", err)
		if err == nil {
			for j, level := range mg.Levels {
				checkLabels(t, fmt.Sprintf("Explore level %d", j), level, n, mg.Kappa[j])
			}
		}

		res, err := mcdc.Cluster(ds, k, mcdc.WithSeed(seed), mcdc.WithParallelism(1))
		checkErr(t, "Cluster", err)
		par, parErr := mcdc.Cluster(ds, k, mcdc.WithSeed(seed), mcdc.WithParallelism(2))
		if fmt.Sprint(err) != fmt.Sprint(parErr) {
			t.Fatalf("Cluster errors differ: parallelism 1 %v, 2 %v", err, parErr)
		}
		if err == nil {
			checkLabels(t, "Cluster", res.Labels, n, k)
			if !slices.Equal(res.Labels, par.Labels) || !slices.EqualFunc(res.Theta, par.Theta, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) || !slices.EqualFunc(res.MultiGranular.Levels, par.MultiGranular.Levels, slices.Equal[[]int]) {
				t.Fatalf("Cluster differs between parallelism 1 and 2: labels %v and %v", res.Labels, par.Labels)
			}
			checkModel(t, res, ds.Rows)
			checkScores(t, "Cluster", truth, res.Labels)
		}

		for _, m := range experiments.Methods() {
			labels, err := m.Run(ds, k, seed)
			checkErr(t, m.Name, err)
			if err == nil {
				// ROCK stops merging when no linked pair is left, so on a
				// sparse link graph it returns more than k clusters
				// (rock.Result; the failure mode the paper reports for it).
				// Its labels are held to [0, n).
				if m.Name == "ROCK" {
					checkLabels(t, m.Name, labels, n, n)
				} else {
					checkLabels(t, m.Name, labels, n, k)
				}
				checkScores(t, m.Name, truth, labels)
			}
		}
	})
}

// checkModel freezes res, writes and reads the model back, and requires
// both to answer every row alike.
func checkModel(t *testing.T, res *mcdc.Result, rows [][]int) {
	t.Helper()
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := mcdc.ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel: %v", err)
	}
	for i, row := range rows {
		want, wantErr := m.Assign(row)
		got, gotErr := back.Assign(row)
		checkErr(t, "Assign", wantErr)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Cluster != want.Cluster ||
			math.Float64bits(got.Similarity) != math.Float64bits(want.Similarity) || !slices.Equal(got.Encoding, want.Encoding) {
			t.Fatalf("row %d %v: reloaded model answers %+v (%v), original %+v (%v)", i, row, got, gotErr, want, wantErr)
		}
	}
}

// checkScores requires every validity score of labels against truth to be
// finite.
func checkScores(t *testing.T, who string, truth, labels []int) {
	t.Helper()
	s, err := mcdc.Evaluate(truth, labels)
	if err != nil {
		t.Fatalf("%s: Evaluate: %v", who, err)
	}
	nmi, err := mcdc.NMI(truth, labels)
	if err != nil {
		t.Fatalf("%s: NMI: %v", who, err)
	}
	for _, x := range []float64{s.ACC, s.ARI, s.AMI, s.FM, nmi} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s: scores %+v, NMI %v: not all finite (labels %v, truth %v)", who, s, nmi, labels, truth)
		}
	}
}
