//go:build !amd64

package similarity

// sumTerms is the Go loop on every architecture but amd64.
func sumTerms(row []int, stride int, m, acc []float64) { sumTermsGo(row, stride, m, acc) }
