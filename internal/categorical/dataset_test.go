package categorical

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := FromStrings("sample",
		[]string{"color", "size", "class"},
		[][]string{
			{"red", "small", "a"},
			{"blue", "large", "b"},
			{"red", "large", "a"},
			{"green", "?", "b"},
		}, 2, "?")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromStrings(t *testing.T) {
	d := sampleDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.N() != 4 || d.D() != 2 || d.NumClasses() != 2 {
		t.Fatalf("n=%d d=%d k=%d, want 4/2/2", d.N(), d.D(), d.NumClasses())
	}
	if got := d.Features[0].Cardinality(); got != 3 {
		t.Errorf("color cardinality = %d, want 3", got)
	}
	if d.Rows[3][1] != Missing {
		t.Errorf("missing token not decoded: %v", d.Rows[3])
	}
	if d.Features[0].Code("blue") != 1 || d.Features[0].Code("nope") != Missing {
		t.Error("Feature.Code lookup broken")
	}
}

func TestFromStringsErrors(t *testing.T) {
	if _, err := FromStrings("x", nil, nil, -1, ""); err == nil {
		t.Error("empty rows: want error")
	}
	if _, err := FromStrings("x", []string{"a"}, [][]string{{"v", "w"}}, -1, ""); err == nil {
		t.Error("header width mismatch: want error")
	}
	if _, err := FromStrings("x", nil, [][]string{{"v"}, {"v", "w"}}, -1, ""); err == nil {
		t.Error("ragged rows: want error")
	}
	if _, err := FromStrings("x", nil, [][]string{{"v"}}, 5, ""); err == nil {
		t.Error("class column out of range: want error")
	}
}

func TestOmitMissing(t *testing.T) {
	d := sampleDataset(t)
	clean := d.OmitMissing()
	if clean.N() != 3 {
		t.Fatalf("OmitMissing kept %d rows, want 3", clean.N())
	}
	if len(clean.Labels) != 3 {
		t.Fatalf("labels not filtered: %v", clean.Labels)
	}
	// Original untouched.
	if d.N() != 4 {
		t.Error("OmitMissing mutated the source")
	}
}

func TestSubsetAndClone(t *testing.T) {
	d := sampleDataset(t)
	sub := d.Subset([]int{2, 0})
	if sub.N() != 2 || sub.Rows[0][0] != d.Rows[2][0] || sub.Labels[1] != d.Labels[0] {
		t.Errorf("Subset wrong: %+v", sub)
	}
	// Mutating the subset must not touch the source.
	sub.Rows[0][0] = 99
	if d.Rows[2][0] == 99 {
		t.Error("Subset shares row storage with source")
	}
	cl := d.Clone()
	if !reflect.DeepEqual(cl.Rows, d.Rows) || !reflect.DeepEqual(cl.Labels, d.Labels) {
		t.Error("Clone differs from source")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := sampleDataset(t)
	d.Rows[0][0] = 17
	if err := d.Validate(); err == nil {
		t.Error("out-of-domain code: want error")
	}
	d = sampleDataset(t)
	d.Rows[1] = d.Rows[1][:1]
	if err := d.Validate(); err == nil {
		t.Error("short row: want error")
	}
	d = sampleDataset(t)
	d.Labels = d.Labels[:2]
	if err := d.Validate(); err == nil {
		t.Error("label count mismatch: want error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), "back", true, 2, "?")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.N() != d.N() || back.D() != d.D() || back.NumClasses() != d.NumClasses() {
		t.Fatalf("round trip changed shape: %s vs %s", back, d)
	}
	for i := range d.Rows {
		for r := range d.Rows[i] {
			gotLabel := "?"
			if back.Rows[i][r] != Missing {
				gotLabel = back.Features[r].Values[back.Rows[i][r]]
			}
			wantLabel := "?"
			if d.Rows[i][r] != Missing {
				wantLabel = d.Features[r].Values[d.Rows[i][r]]
			}
			if gotLabel != wantLabel {
				t.Fatalf("row %d feature %d: %q vs %q", i, r, gotLabel, wantLabel)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "x", false, -1, ""); err == nil {
		t.Error("empty csv: want error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1"), "x", false, -1, ""); err == nil {
		t.Error("ragged csv: want error")
	}
}

func TestStringSummary(t *testing.T) {
	d := sampleDataset(t)
	if got := d.String(); !strings.Contains(got, "n=4") || !strings.Contains(got, "k*=2") {
		t.Errorf("String() = %q", got)
	}
}

func TestDenseLabels(t *testing.T) {
	labels, k := DenseLabels([]int{7, -1, 3, 7, 9, 3})
	if want := []int{0, 0, 1, 0, 2, 1}; !reflect.DeepEqual(labels, want) || k != 3 {
		t.Errorf("DenseLabels = %v, %d; want %v, 3", labels, k, want)
	}
	if labels, k := DenseLabels([]int{-1, -1}); !reflect.DeepEqual(labels, []int{0, 0}) || k != 0 {
		t.Errorf("all unassigned: DenseLabels = %v, %d; want [0 0], 0", labels, k)
	}
}
