package similarity

import (
	"math/rand"
	"testing"

	"mcdc/internal/categorical"
)

// boundaryCardMixes returns cardinality mixes whose total one-hot widths sit
// on and around the word boundaries (1, 63, 64, 65 bits), plus larger mixed
// widths — the cases where a packing off-by-one would bite.
func boundaryCardMixes() map[string][]int {
	mixes := map[string][]int{
		"1bit":      {1},                       // total 1
		"63bit":     {31, 32},                  // total 63
		"64bit":     {31, 32, 1},               // total 64, exactly one word
		"65bit":     {31, 32, 2},               // total 65, spills into word 2
		"binary25":  nil,                       // filled below: 25 × card 2
		"mixed130":  {2, 3, 5, 7, 64, 32, 17},  // total 130, three words
		"lopsided":  {1, 1, 1, 1, 1, 1, 60, 1}, // total 67
		"card3_x25": nil,                       // 25 × card 3
	}
	b25 := make([]int, 25)
	c25 := make([]int, 25)
	for i := range b25 {
		b25[i], c25[i] = 2, 3
	}
	mixes["binary25"], mixes["card3_x25"] = b25, c25
	return mixes
}

// TestPackedMatchesRowMatches pins the popcount kernel against the
// per-feature oracle on every pair of random rows, across the boundary
// cardinality mixes and missing-value densities.
func TestPackedMatchesRowMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, card := range boundaryCardMixes() {
		for _, missing := range []float64{0, 0.2, 1} {
			rows := randomRows(rng, 40, card, missing)
			p := PackRows(rows)
			if p == nil {
				t.Fatalf("%s: PackRows declined packable rows", name)
			}
			if p.N() != len(rows) || p.D() != len(card) {
				t.Fatalf("%s: packed shape %d×%d, want %d×%d", name, p.N(), p.D(), len(rows), len(card))
			}
			for i := range rows {
				for j := range rows {
					want := RowMatches(rows[i], rows[j])
					if got := p.Matches(i, j); got != want {
						t.Fatalf("%s missing=%v: Matches(%d,%d) = %d, RowMatches = %d",
							name, missing, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestPackRowsDeclines pins the fallback conditions: rows the packed layout
// cannot represent faithfully (or profitably) must return nil so callers
// keep the unpacked kernel's exact semantics.
func TestPackRowsDeclines(t *testing.T) {
	if PackRows(nil) != nil {
		t.Error("PackRows(nil) should decline")
	}
	if PackRows([][]int{{}}) != nil {
		t.Error("PackRows of zero-width rows should decline")
	}
	if PackRows([][]int{{0, 1}, {0}}) != nil {
		t.Error("PackRows of ragged rows should decline")
	}
	if PackRows([][]int{{0}, {-7}}) != nil {
		t.Error("PackRows of a negative non-Missing code should decline")
	}
	// One feature spanning > maxPackedBits values.
	if PackRows([][]int{{maxPackedBits + 1}, {0}}) != nil {
		t.Error("PackRows beyond maxPackedBits should decline")
	}
	// d=2 features of cardinality 65 each: 3 words for 2 features — the
	// packed row grew past the unpacked one, no win.
	if PackRows([][]int{{64, 64}, {0, 0}}) != nil {
		t.Error("PackRows should decline when words outgrow features")
	}
	// All-Missing rows pack (to rows that match nothing) when wide enough to
	// pay: 2 features, 0 observed values → 1 word < 2 features.
	rows := [][]int{{categorical.Missing, categorical.Missing}, {categorical.Missing, categorical.Missing}}
	p := PackRows(rows)
	if p == nil {
		t.Fatal("all-Missing rows should pack")
	}
	if got := p.Matches(0, 1); got != 0 {
		t.Fatalf("all-Missing Matches = %d, want 0", got)
	}
}
