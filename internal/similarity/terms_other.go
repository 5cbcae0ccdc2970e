//go:build !amd64

package similarity

// sumTerms is the Go loop on every architecture but amd64.
func sumTerms(offs []int32, m, acc []float64) { sumTermsGo(offs, m, acc) }
