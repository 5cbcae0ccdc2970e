// Package densetest exercises the densematrix analyzer.
package densetest

// PairwiseSimilarity builds the full matrix the old way.
func PairwiseSimilarity(rows [][]int) [][]float64 { // want `PairwiseSimilarity returns a dense \[\]\[\]float64`
	return nil
}

func cluster(dist [][]float64, k int) []int { // want `cluster accepts a dense \[\]\[\]float64`
	return nil
}

// weights is fine: a [][]float64 that is not pairwise data.
func updateWeights(w [][]float64) {}

// HammingMatrix calls itself a dense shim over the condensed core, kept for
// callers that need the classic form; a doc comment exempts nothing.
func HammingMatrix(rows [][]int) [][]float64 { // want `HammingMatrix returns a dense \[\]\[\]float64`
	return nil
}

//lint:mcdcvet-ignore densematrix oracle path keeps the dense form for cross-checking
func dissimilarityOracle(dissim [][]float64) float64 {
	return dissim[0][0]
}
