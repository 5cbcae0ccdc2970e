package server

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mcdc/internal/hashring"
	"mcdc/internal/model"
)

// rowKey builds the ring key of a stateless assignment as a string: the
// oracle statelessKey hashes without building.
func rowKey(model string, row []int) string {
	var b strings.Builder
	b.WriteString("r|")
	b.WriteString(model)
	for _, v := range row {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// TestStatelessKeyMatchesRowKey pins placement across the incremental hash:
// for random rows — negative and extreme codes, empty rows, multi-byte model
// names — statelessKey, fed the model as a string (batches) or as the bytes
// of a decoded 'A' payload (singles), equals hashring.Hash of the built key,
// so every row lands where the string key placed it.
func TestStatelessKeyMatchesRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []string{"m", "syn", "vote.v2", "модель", "模型-α", "x_" + strings.Repeat("é", 40)}
	extremes := []int{0, -1, 1, 9, 10, -10, math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt32}
	var scratch model.AssignRequest
	for trial := 0; trial < 3000; trial++ {
		m := models[rng.Intn(len(models))]
		row := make([]int, rng.Intn(12)) // 0..11 features; 0 is the empty row
		for i := range row {
			switch rng.Intn(3) {
			case 0:
				row[i] = extremes[rng.Intn(len(extremes))]
			case 1:
				row[i] = rng.Intn(7) - 2
			default:
				row[i] = int(rng.Int63()) - math.MaxInt/2
			}
		}
		want := hashring.Hash(rowKey(m, row))
		if got := statelessKey(hashring.NewHasher().AddString("r|").AddString(m), row); got != want {
			t.Fatalf("model %q row %v: statelessKey %x, Hash(rowKey) %x", m, row, got, want)
		}
		it := singleItem(model.AppendAssignRequest(nil, m, "", row), &scratch)
		if it.done || it.key != want {
			t.Fatalf("model %q row %v: 'A' item key %x (done %v), Hash(rowKey) %x", m, row, it.key, it.done, want)
		}
	}
}

// TestStatelessChainWalk pins the chain walk against the GetN chain it
// replaces: for every up/down mask of a 3-node ring, placement is the first
// up backend of GetN(key) (its owner when none is up).
func TestStatelessChainWalk(t *testing.T) {
	nodes := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	ring := hashring.New(0)
	ring.Add(nodes...)
	for mask := 0; mask < 1<<len(nodes); mask++ {
		p := placement{ring: ring}
		for i, n := range nodes {
			if mask&(1<<i) != 0 {
				p.up = append(p.up, n)
			}
		}
		for k := 0; k < 2000; k++ {
			key := rowKey("m", []int{k, k % 7, -k})
			chain := ring.GetN(key, ring.Len())
			want := chain[0]
			for _, b := range chain {
				if p.isUp(b) {
					want = b
					break
				}
			}
			if got := p.stateless(hashring.Hash(key)); got != want {
				t.Fatalf("mask %03b key %q: placed on %q, GetN chain %v gives %q", mask, key, got, chain, want)
			}
		}
	}
}

// TestPlaceStatelessAllocs pins the gateway's per-row edge work at zero
// allocations: decoding a stateless 'A' payload into an item and placing it.
func TestPlaceStatelessAllocs(t *testing.T) {
	ring := hashring.New(0)
	ring.Add("a:1", "b:1")
	p := placement{ring: ring, up: []string{"a:1", "b:1"}}
	payload := model.AppendAssignRequest(nil, "syn", "", []int{3, 1, 0, -1, 2, 1, 0, 4, 2, 1})
	var scratch model.AssignRequest
	var placed string
	if n := testing.AllocsPerRun(500, func() {
		it := singleItem(payload, &scratch)
		placed = p.stateless(it.key)
	}); n != 0 {
		t.Fatalf("decoding and placing a stateless 'A' payload: %v allocs, want 0", n)
	}
	if placed == "" {
		t.Fatal("nothing placed")
	}
}
