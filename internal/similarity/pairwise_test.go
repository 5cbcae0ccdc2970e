package similarity

import (
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/kmodes"
)

func TestRowMatches(t *testing.T) {
	a := []int{0, 1, 2, categorical.Missing, categorical.Missing}
	b := []int{0, 2, 2, categorical.Missing, 1}
	// Missing never matches — not even another Missing — matching the
	// repository-wide kmodes.Hamming convention.
	if got := RowMatches(a, b); got != 2 {
		t.Errorf("RowMatches = %d, want 2", got)
	}
	if got, want := RowMatches(a, b), len(a)-kmodes.Hamming(a, b); got != want {
		t.Errorf("RowMatches = %d, but d - kmodes.Hamming = %d", got, want)
	}
}
