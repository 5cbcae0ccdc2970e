package similarity

// sumTerms is sumTermsGo in SSE2 assembly (terms_amd64.s). The caller,
// termSums, has checked that every term row it reads lies inside m.
//
//go:noescape
func sumTerms(offs []int32, m, acc []float64)
