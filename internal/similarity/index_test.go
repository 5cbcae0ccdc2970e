package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcdc/internal/categorical"
)

// rowTables is the reference of the offset walks: the counts of Tables,
// updated by Add, Remove and WeightedSumLOO bodies that read the value codes
// of data[i] and index the counts at r*stride+v, as Tables did before the
// Index held offsets.
type rowTables struct {
	data   [][]int
	stride int
	size   []int
	count  [][]int
	seen   [][]int
}

func newRowTables(data [][]int, card []int, k int) *rowTables {
	stride := 0
	for _, m := range card {
		stride = max(stride, m)
	}
	t := &rowTables{data: data, stride: stride, size: make([]int, k), count: make([][]int, k), seen: make([][]int, k)}
	for l := range k {
		t.count[l] = make([]int, len(card)*stride)
		t.seen[l] = make([]int, len(card))
	}
	return t
}

func (t *rowTables) Add(i, l int) {
	row := t.data[i]
	t.size[l]++
	cl, sl := t.count[l], t.seen[l]
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cl[r*t.stride+v]++
		sl[r]++
	}
}

func (t *rowTables) Remove(i, l int) {
	row := t.data[i]
	t.size[l]--
	cl, sl := t.count[l], t.seen[l]
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cl[r*t.stride+v]--
		sl[r]--
	}
}

func (t *rowTables) WeightedSumLOO(i, l int, w []float64, member bool) float64 {
	row := t.data[i]
	cl, sl := t.count[l], t.seen[l]
	var sum float64
	for r, v := range row {
		if v == categorical.Missing {
			continue
		}
		cnt, seen := cl[r*t.stride+v], sl[r]
		if member {
			cnt--
			seen--
		}
		if seen > 0 {
			sum += w[r] * float64(cnt) / float64(seen)
		}
	}
	return sum
}

// dropEmpty is DropEmpty on the reference.
func (t *rowTables) dropEmpty() {
	k := 0
	for l := range t.size {
		if t.size[l] > 0 {
			t.size[k], t.count[k], t.seen[k] = t.size[l], t.count[l], t.seen[l]
			k++
		}
	}
	t.size, t.count, t.seen = t.size[:k], t.count[:k], t.seen[:k]
}

// TestOffsetWalksMatchRowWalks checks Add, Remove and WeightedSumLOO, which
// walk the Index's term-row offsets, against the row-walking reference: the
// counts must be equal after every step, and every leave-one-out and plain
// sum equal under math.Float64bits. The rows are random, with Missing cells
// and cardinalities below the stride. Several tables in turn count over one
// shared index, each made fresh after the one before it ran DropEmpty, and
// the index's whole-data-set counts must stay those of the rows.
func TestOffsetWalksMatchRowWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(9)
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(6)
		}
		rows := randomRows(rng, n, card, []float64{0, 0.2, 0.6}[trial%3])
		ix, err := NewIndex(rows, card)
		if err != nil {
			t.Fatal(err)
		}
		global := newRowTables(rows, card, 1)
		for i := range rows {
			global.Add(i, 0)
		}
		for gen := 0; gen < 3; gen++ {
			k := 1 + rng.Intn(6)
			tb, ref := ix.Tables(k), newRowTables(rows, card, k)
			if tb.Index() != ix {
				t.Fatalf("trial %d: tables count over another index", trial)
			}
			assign := make([]int, n)
			for i := range assign {
				assign[i] = -1
			}
			w := make([]float64, d)
			for step := 0; step < 4*n; step++ {
				i := rng.Intn(n)
				if l := assign[i]; l >= 0 {
					tb.Remove(i, l)
					ref.Remove(i, l)
					assign[i] = -1
				}
				if rng.Intn(4) > 0 {
					assign[i] = rng.Intn(tb.K())
					tb.Add(i, assign[i])
					ref.Add(i, assign[i])
				}
				if rng.Intn(n) == 0 {
					slot := make([]int, tb.K())
					tb.DropEmpty(slot)
					ref.dropEmpty()
					for j, l := range assign {
						if l >= 0 {
							assign[j] = slot[l]
						}
					}
					if tb.K() == 0 {
						break
					}
				}
				if !reflect.DeepEqual(tb.size, ref.size) || !reflect.DeepEqual(tb.count, ref.count) || !reflect.DeepEqual(tb.seen, ref.seen) {
					t.Fatalf("trial %d gen %d step %d: counts differ from the row walk", trial, gen, step)
				}
				for r := range w {
					w[r] = rng.Float64()
				}
				for j := range rows {
					for l := 0; l < tb.K(); l++ {
						member := assign[j] == l
						got, want := tb.WeightedSumLOO(j, l, w, member), ref.WeightedSumLOO(j, l, w, member)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d gen %d step %d: object %d cluster %d member %v: %v, row walk %v",
								trial, gen, step, j, l, member, got, want)
						}
					}
				}
			}
		}
		if !reflect.DeepEqual(ix.globalCount, global.count[0]) || !reflect.DeepEqual(ix.globalSeen, global.seen[0]) {
			t.Fatalf("trial %d: the index's whole-data-set counts moved", trial)
		}
	}
}
