package model

import (
	"math/rand"
	"testing"
)

// TestJSONCodecAllocs pins what the JSON codec costs the serving path in
// allocations: a decoded batch holds its rows in one backing array and a
// decoded reply its encodings in another, whatever the row count, and the
// single decoder and both reply encoders allocate nothing when handed a
// buffer with room.
func TestJSONCodecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 256)
	asgs := make([]Assignment, len(rows))
	for i := range rows {
		rows[i] = make([]int, 16)
		for f := range rows[i] {
			rows[i][f] = rng.Intn(6)
		}
		asgs[i] = Assignment{Cluster: rng.Intn(4), Similarity: float64(rng.Intn(7)) / 6, Encoding: []int{rng.Intn(9), rng.Intn(9), 1}}
	}
	epoch := func(int) int { return 3 }
	batch := AppendBatchJSON(nil, "syn", rows)
	reply, err := AppendBatchReplyJSON(nil, "syn", asgs, epoch)
	if err != nil {
		t.Fatal(err)
	}
	single := AppendAssignJSON(nil, "syn", "", rows[0])
	result := AppendResult(nil, asgs[0], 3)
	buf := make([]byte, 0, 2*len(reply))

	for _, c := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"DecodeBatchJSON", 3, func() error { _, _, err := DecodeBatchJSON(batch); return err }},
		{"DecodeBatchReplyJSON", 3, func() error { _, err := DecodeBatchReplyJSON(reply); return err }},
		{"DecodeAssignJSON", 0, func() error { _, err := DecodeAssignJSON(buf[:0], single); return err }},
		{"AppendResultJSON", 0, func() error { _, err := AppendResultJSON(buf[:0], result); return err }},
		{"AppendBatchReplyJSON", 0, func() error { _, err := AppendBatchReplyJSON(buf[:0], "syn", asgs, epoch); return err }},
	} {
		var err error
		if got := testing.AllocsPerRun(20, func() { err = c.op() }); got > c.max {
			t.Errorf("%s: %v allocs, want at most %v", c.name, got, c.max)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
