package mcdc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"mcdc/internal/datasets"
	"mcdc/internal/testenv"
)

// goldenRun pins one Table II data set's Cluster output: κ of the first MGCPL
// analysis as is, and SHA-256 prefixes of the final labels, the pooled Γ
// encoding CAME clustered, and the bits of θ.
type goldenRun struct {
	kappa                []int
	labels, gamma, theta string
}

// tableIIGolden holds Cluster(Builtin(name, 1), k*, WithSeed(1)) for every
// Table II set. The values were recorded before MGCPL's competitive loop
// cached its per-cluster similarity terms and sigmoid weights: the caches
// must reproduce the uncached loop bit for bit.
var tableIIGolden = map[string]goldenRun{
	"Car.": {[]int{21, 11, 10, 5}, "a4765df87851c214", "4eb597a74c2146a6", "8069e972c604dcd4"},
	"Con.": {[]int{11, 5, 4, 2}, "cb2f7a4e819a17c8", "feafd9d37e3c588e", "52fad320068b27cd"},
	"Che.": {[]int{19, 2}, "7eeb7e94d1a7cc36", "4e3aced0ee934baa", "d226799522f04d23"},
	"Mus.": {[]int{35, 17, 9, 6, 3, 2}, "a3b72515f6c2234e", "3216a56d158f51cf", "b8b1da383234efbc"},
	"Tic.": {[]int{19, 11, 9, 8, 7, 6, 4}, "f04deae9bff9e836", "4e53a89164769a6d", "a4f079b55f5826c9"},
	"Vot.": {[]int{8, 5, 3, 2}, "496399e55706e4a4", "7266612dd5d85fe8", "f4695f9f9d357689"},
	"Bal.": {[]int{16, 10, 7, 6, 5}, "609305c948c28ee9", "bc3ba260bf9e72a8", "8156efa9bf967fde"},
	"Nur.": {[]int{52, 23, 12, 8, 7, 6, 4, 3}, "15db4c4284054841", "05876ae2df188bff", "b9da18999f407346"},
}

// TestClusterGoldenTableII checks Cluster against tableIIGolden. Regular runs
// cover the sets of at most 1728 rows; MCDC_NIGHTLY=1 runs all eight.
//
// The hashes hold on amd64 only. math.Exp, which drives MGCPL's sigmoid
// weights, has an assembly implementation there and a pure-Go one elsewhere,
// and other architectures may fuse a multiply and an add into one rounding.
// Either can move a last bit, and with it a tie in a winner choice.
func TestClusterGoldenTableII(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; %s may round math.Exp or fused multiply-adds differently", runtime.GOARCH)
	}
	for _, info := range datasets.Table2() {
		if info.N > 1728 && !testenv.Nightly() {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			ds, err := Builtin(info.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Cluster(ds, info.KStar, WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun{
				kappa:  res.MultiGranular.Kappa,
				labels: goldenHash(res.Labels),
				gamma:  goldenHash(res.modelSrc.encoding...),
				theta:  goldenFloatHash(res.Theta),
			}
			want, ok := tableIIGolden[info.Name]
			if !ok {
				t.Fatalf("no golden entry; got %#v", got)
			}
			if !slices.Equal(got.kappa, want.kappa) {
				t.Errorf("kappa = %v, want %v", got.kappa, want.kappa)
			}
			if got.labels != want.labels {
				t.Errorf("labels hash = %s, want %s", got.labels, want.labels)
			}
			if got.gamma != want.gamma {
				t.Errorf("pooled encoding hash = %s, want %s", got.gamma, want.gamma)
			}
			if got.theta != want.theta {
				t.Errorf("theta hash = %s, want %s", got.theta, want.theta)
			}
		})
	}
}

// goldenHash hashes int rows as length-prefixed little-endian int64s, so the
// value does not depend on the platform's int size.
func goldenHash(rows ...[]int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, row := range rows {
		put(len(row))
		for _, v := range row {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenFloatHash hashes the IEEE-754 bits of xs.
func goldenFloatHash(xs []float64) string {
	bits := make([]int, len(xs))
	for i, x := range xs {
		bits[i] = int(math.Float64bits(x))
	}
	return goldenHash(bits)
}
