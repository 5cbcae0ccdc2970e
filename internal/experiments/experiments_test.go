package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	t3, err := RunTable3(Table3Config{
		Runs:     1,
		Seed:     1,
		Datasets: []string{"Vot."},
		Methods:  []string{"K-MODES", "WOCIL", "MCDC"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Indices) != 4 || len(t3.Datasets) != 1 || len(t3.Methods) != 3 {
		t.Fatalf("unexpected table shape: %v / %v / %v", t3.Indices, t3.Datasets, t3.Methods)
	}
	for xi := range t3.Indices {
		for mi := range t3.Methods {
			c := t3.Cells[xi][0][mi]
			if c.Mean < -1 || c.Mean > 1 {
				t.Errorf("%s/%s mean %v outside index range", t3.Indices[xi], t3.Methods[mi], c.Mean)
			}
		}
	}
	scores, err := t3.MethodScores("ACC", "MCDC")
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 1 || scores[0] < 0.5 {
		t.Errorf("MCDC ACC on Vot. = %v, want ≥ 0.5", scores)
	}
	var buf bytes.Buffer
	t3.Write(&buf)
	if !strings.Contains(buf.String(), "== ACC ==") || !strings.Contains(buf.String(), "Vot.") {
		t.Error("Write output missing expected sections")
	}
}

func TestTable4Wiring(t *testing.T) {
	// Build a miniature Table3 by hand: the champion strictly dominates.
	t3 := &Table3{
		Indices:  []string{"ACC", "ARI", "AMI", "FM"},
		Datasets: []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		Methods:  []string{"K-MODES", "MCDC+F."},
	}
	t3.Cells = make([][][]Cell, 4)
	for xi := range t3.Cells {
		t3.Cells[xi] = make([][]Cell, 8)
		for di := range t3.Cells[xi] {
			t3.Cells[xi][di] = []Cell{
				{Mean: 0.3 + 0.01*float64(di)},
				{Mean: 0.6 + 0.01*float64(di)},
			}
		}
	}
	t4, err := RunTable4(t3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Methods) != 1 || t4.Methods[0] != "K-MODES" {
		t.Fatalf("methods = %v", t4.Methods)
	}
	for xi := range t4.Indices {
		if !t4.Significant[0][xi] {
			t.Errorf("champion dominates on %s, want '+' (p=%v)", t4.Indices[xi], t4.PValues[0][xi])
		}
	}
	var buf bytes.Buffer
	t4.Write(&buf)
	if !strings.Contains(buf.String(), "K-MODES") {
		t.Error("Write output missing method row")
	}
}

func TestRunAblationVersions(t *testing.T) {
	rows := make([][]int, 120)
	for i := range rows {
		rows[i] = []int{i % 3, (i % 3) ^ 1, i % 2}
	}
	// Feature 1 takes the codes {1, 0, 3} (2^1 = 3), so its domain is [0, 4).
	card := []int{3, 4, 2}
	for _, v := range AblationVersions {
		labels, err := RunAblation(v, rows, card, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(labels) != len(rows) {
			t.Fatalf("%s: %d labels", v, len(labels))
		}
	}
	if _, err := RunAblation("nope", rows, card, 3, 7); err == nil {
		t.Error("unknown version: want error")
	}
}

func TestFig5Shapes(t *testing.T) {
	f5, err := RunFig5(1, []string{"Vot.", "Bal."}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Datasets) != 2 {
		t.Fatalf("datasets = %v", f5.Datasets)
	}
	for di := range f5.Datasets {
		kappa := f5.Kappa[di]
		if len(kappa) == 0 {
			t.Fatalf("%s: empty kappa", f5.Datasets[di])
		}
		for j := 1; j < len(kappa); j++ {
			if kappa[j] >= kappa[j-1] {
				t.Errorf("%s: kappa not decreasing: %v", f5.Datasets[di], kappa)
			}
		}
		if kappa[0] > f5.K0[di] {
			t.Errorf("%s: k1 = %d exceeds k0 = %d", f5.Datasets[di], kappa[0], f5.K0[di])
		}
	}
	var buf bytes.Buffer
	f5.Write(&buf)
	if !strings.Contains(buf.String(), "k0=") {
		t.Error("Write output missing k0")
	}
}

func TestMethodByName(t *testing.T) {
	for _, want := range []string{"K-MODES", "ROCK", "WOCIL", "FKMAWCW", "GUDMM", "ADC", "MCDC", "MCDC+G.", "MCDC+F."} {
		if _, err := MethodByName(want); err != nil {
			t.Errorf("MethodByName(%q): %v", want, err)
		}
	}
	if _, err := MethodByName("nope"); err == nil {
		t.Error("unknown method: want error")
	}
}

func TestSensitivitySweep(t *testing.T) {
	sw, err := RunSensitivity(1, 1, []string{"Vot."}, []float64{0.8, 0.9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Datasets) != 1 || len(sw.Thresholds) != 2 {
		t.Fatalf("shape: %v / %v", sw.Datasets, sw.Thresholds)
	}
	for ti := range sw.Thresholds {
		if sw.FinalK[0][ti] < 1 {
			t.Errorf("tau=%v: final k %v", sw.Thresholds[ti], sw.FinalK[0][ti])
		}
		if sw.ARI[0][ti] < -1 || sw.ARI[0][ti] > 1 {
			t.Errorf("tau=%v: ARI %v out of range", sw.Thresholds[ti], sw.ARI[0][ti])
		}
	}
	var buf bytes.Buffer
	sw.Write(&buf)
	if !strings.Contains(buf.String(), "tau=0.80") {
		t.Error("Write output missing threshold column")
	}
}

func TestFig4Write(t *testing.T) {
	f4 := &Fig4{
		Datasets: []string{"X"},
		Versions: AblationVersions,
		ARI:      [][]float64{{0.5, 0.4, 0.3, 0.2, 0.1}},
	}
	var buf bytes.Buffer
	f4.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "MCDC4") || !strings.Contains(out, "0.500") {
		t.Errorf("Fig4 output: %s", out)
	}
}

func TestLinkageScaleSmall(t *testing.T) {
	ls, err := RunLinkageScale(LinkageScaleConfig{Ns: []int{120, 260}, Seed: 1, ScanCap: 260})
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Ns) != 2 || len(ls.ChainSec) != 2 || len(ls.ScanSec) != 2 || len(ls.Verified) != 2 {
		t.Fatalf("shape: %+v", ls)
	}
	for i, n := range ls.Ns {
		if !ls.Checked[i] || !ls.Verified[i] {
			t.Errorf("n=%d: chain not verified against the scan oracle", n)
		}
		if ls.ChainSec[i] <= 0 || ls.ScanSec[i] <= 0 {
			t.Errorf("n=%d: non-positive timings %v / %v", n, ls.ScanSec[i], ls.ChainSec[i])
		}
		if ls.ARI[i] < 0.5 {
			t.Errorf("n=%d: chain Cut ARI %v below planted-structure floor", n, ls.ARI[i])
		}
		if ls.Medoid[i] < 0 || ls.Medoid[i] >= n {
			t.Errorf("n=%d: medoid %d out of range", n, ls.Medoid[i])
		}
	}
	var buf bytes.Buffer
	ls.Write(&buf)
	if !strings.Contains(buf.String(), "chain") || !strings.Contains(buf.String(), "speedup") {
		t.Error("Write output missing expected columns")
	}
	if _, err := RunLinkageScale(LinkageScaleConfig{Ns: []int{1}}); err == nil {
		t.Error("n=1: want error")
	}
}
