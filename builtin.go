package mcdc

import "mcdc/internal/datasets"

// Builtin generates one of the built-in benchmark data sets of the paper's
// Table II by name ("Car.", "Con.", "Che.", "Mus.", "Tic.", "Vot.", "Bal.",
// "Nur.", full names also accepted). Rule data sets (Car., Tic., Bal., Nur.)
// are exact reconstructions of the UCI originals; the others are seeded
// generative stand-ins with the published schema.
func Builtin(name string, seed int64) (*Dataset, error) {
	return datasets.Load(name, seed)
}

// BuiltinNames lists the available built-in data set names.
func BuiltinNames() []string { return datasets.Names() }

// SyntheticDataset generates a well-separated k-cluster categorical data set
// (the construction behind the paper's Syn_n / Syn_d scalability sets).
func SyntheticDataset(name string, n, d, k int, seed int64) *Dataset {
	return datasets.Synthetic(name, n, d, k, 0.85, newRand(seed))
}
