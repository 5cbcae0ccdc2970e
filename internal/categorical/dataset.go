// Package categorical defines the data model for purely categorical data
// sets: objects described by qualitative features with small finite domains.
//
// Values are stored integer-encoded (dense codes 0..m_r-1 per feature) so the
// clustering algorithms can index frequency tables directly. The package also
// provides CSV round-tripping, missing-value handling, and basic dataset
// surgery (subset, shuffle, split) used by the experiment harness.
package categorical

import (
	"errors"
	"fmt"
	"strings"
)

// Missing is the sentinel code for a missing (NULL) value. All regular codes
// are non-negative.
const Missing = -1

// Feature describes one categorical feature: its name and the string labels
// of its possible values. Code i corresponds to Values[i].
type Feature struct {
	Name   string
	Values []string
}

// Cardinality returns the number of possible values of the feature.
func (f *Feature) Cardinality() int { return len(f.Values) }

// Code returns the integer code for a value label, or Missing if the label is
// not part of the feature's domain.
func (f *Feature) Code(label string) int {
	for i, v := range f.Values {
		if v == label {
			return i
		}
	}
	return Missing
}

// Dataset is a collection of objects over a fixed categorical schema.
//
// Rows holds one slice per object; Rows[i][r] is the integer code of object
// i's value on feature r, or Missing. Labels optionally holds ground-truth
// class indices (used only by evaluation, never by the clustering itself);
// a nil Labels means unlabeled data.
type Dataset struct {
	Name     string
	Features []Feature
	Rows     [][]int
	Labels   []int
}

// N returns the number of objects.
func (d *Dataset) N() int { return len(d.Rows) }

// D returns the number of features.
func (d *Dataset) D() int { return len(d.Features) }

// Cardinalities returns the per-feature domain sizes m_r.
func (d *Dataset) Cardinalities() []int {
	out := make([]int, len(d.Features))
	for r := range d.Features {
		out[r] = d.Features[r].Cardinality()
	}
	return out
}

// NumClasses returns the number of distinct ground-truth classes, or 0 when
// the data set is unlabeled.
func (d *Dataset) NumClasses() int {
	if d.Labels == nil {
		return 0
	}
	max := -1
	for _, y := range d.Labels {
		if y > max {
			max = y
		}
	}
	return max + 1
}

// Validate checks structural invariants: rectangular rows, codes within
// feature domains, labels (if present) matching the row count.
func (d *Dataset) Validate() error {
	for i, row := range d.Rows {
		if len(row) != len(d.Features) {
			return fmt.Errorf("row %d: got %d values, schema has %d features", i, len(row), len(d.Features))
		}
		for r, v := range row {
			if v == Missing {
				continue
			}
			if v < 0 || v >= d.Features[r].Cardinality() {
				return fmt.Errorf("row %d feature %q: code %d outside domain [0,%d)", i, d.Features[r].Name, v, d.Features[r].Cardinality())
			}
		}
	}
	if d.Labels != nil && len(d.Labels) != len(d.Rows) {
		return fmt.Errorf("labels: got %d, want %d", len(d.Labels), len(d.Rows))
	}
	return nil
}

// ErrEmptyDataset is returned by operations that require at least one object.
var ErrEmptyDataset = errors.New("categorical: empty dataset")

// OmitMissing returns a copy of the data set with every object that has at
// least one missing value removed, mirroring the preprocessing protocol of
// the paper ("data objects with missing values are omitted").
func (d *Dataset) OmitMissing() *Dataset {
	out := &Dataset{Name: d.Name, Features: append([]Feature(nil), d.Features...)}
	for i, row := range d.Rows {
		complete := true
		for _, v := range row {
			if v == Missing {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		out.Rows = append(out.Rows, append([]int(nil), row...))
		if d.Labels != nil {
			out.Labels = append(out.Labels, d.Labels[i])
		}
	}
	return out
}

// Subset returns a new data set containing the objects at the given indices,
// in order. Indices may repeat (bootstrap sampling).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:     d.Name,
		Features: append([]Feature(nil), d.Features...),
		Rows:     make([][]int, 0, len(idx)),
	}
	if d.Labels != nil {
		out.Labels = make([]int, 0, len(idx))
	}
	for _, i := range idx {
		out.Rows = append(out.Rows, append([]int(nil), d.Rows[i]...))
		if d.Labels != nil {
			out.Labels = append(out.Labels, d.Labels[i])
		}
	}
	return out
}

// Clone returns a deep copy of the data set.
func (d *Dataset) Clone() *Dataset {
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// String summarizes the data set.
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d d=%d", d.Name, d.N(), d.D())
	if k := d.NumClasses(); k > 0 {
		fmt.Fprintf(&b, " k*=%d", k)
	}
	return b.String()
}

// FromStrings builds a data set from raw string-valued rows, inferring each
// feature's domain from the observed values (in first-appearance order).
// missingToken marks missing values; pass "" to disable missing detection.
// If classCol >= 0, that column is extracted as the ground-truth label.
func FromStrings(name string, header []string, rows [][]string, classCol int, missingToken string) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, ErrEmptyDataset
	}
	width := len(rows[0])
	if header != nil && len(header) != width {
		return nil, fmt.Errorf("categorical: header has %d columns, rows have %d", len(header), width)
	}
	if classCol >= width {
		return nil, fmt.Errorf("categorical: class column %d outside row width %d", classCol, width)
	}
	d := &Dataset{Name: name}
	colOf := make([]int, 0, width) // dataset feature index -> raw column
	for c := 0; c < width; c++ {
		if c == classCol {
			continue
		}
		f := Feature{Name: fmt.Sprintf("f%d", c)}
		if header != nil {
			f.Name = header[c]
		}
		d.Features = append(d.Features, f)
		colOf = append(colOf, c)
	}
	codes := make([]map[string]int, len(d.Features))
	for r := range codes {
		codes[r] = make(map[string]int)
	}
	classCodes := make(map[string]int)
	for i, raw := range rows {
		if len(raw) != width {
			return nil, fmt.Errorf("categorical: row %d has %d columns, want %d", i, len(raw), width)
		}
		row := make([]int, len(d.Features))
		for r, c := range colOf {
			v := raw[c]
			if missingToken != "" && v == missingToken {
				row[r] = Missing
				continue
			}
			code, ok := codes[r][v]
			if !ok {
				code = len(d.Features[r].Values)
				codes[r][v] = code
				d.Features[r].Values = append(d.Features[r].Values, v)
			}
			row[r] = code
		}
		d.Rows = append(d.Rows, row)
		if classCol >= 0 {
			v := raw[classCol]
			code, ok := classCodes[v]
			if !ok {
				code = len(classCodes)
				classCodes[v] = code
			}
			d.Labels = append(d.Labels, code)
		}
	}
	return d, nil
}

// DenseLabels relabels a cluster assignment densely, 0..k-1 in order of first
// appearance, and returns the labels with k, the number of distinct clusters.
// A negative id marks an object no cluster took; it joins cluster 0 and does
// not count toward k.
func DenseLabels(assign []int) ([]int, int) {
	remap := make(map[int]int)
	labels := make([]int, len(assign))
	for i, l := range assign {
		if l < 0 {
			continue
		}
		nl, ok := remap[l]
		if !ok {
			nl = len(remap)
			remap[l] = nl
		}
		labels[i] = nl
	}
	return labels, len(remap)
}
