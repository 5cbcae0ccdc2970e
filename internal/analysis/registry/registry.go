// Package registry enumerates the repo's analyzer suite in one place, so
// cmd/mcdcvet and its smoke test cannot drift apart: the binary serves
// exactly what All returns, and the test asserts All covers every standing
// constraint the suite exists to mechanize.
package registry

import (
	"mcdc/internal/analysis"
	"mcdc/internal/analysis/passes/bodydrain"
	"mcdc/internal/analysis/passes/detrand"
	"mcdc/internal/analysis/passes/errenvelope"
	"mcdc/internal/analysis/passes/lockorder"
	"mcdc/internal/analysis/passes/sloglint"
)

// All returns the full analyzer suite in deterministic (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bodydrain.Analyzer,
		detrand.Analyzer,
		errenvelope.Analyzer,
		lockorder.Analyzer,
		sloglint.Analyzer,
	}
}
