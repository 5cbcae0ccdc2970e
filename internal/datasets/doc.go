// Package datasets generates the ten evaluation data sets of the paper's
// Table II. The module is offline, so the UCI files cannot be fetched;
// instead:
//
//   - Balance Scale, Tic-Tac-Toe, Car Evaluation and Nursery are *rule
//     data sets*: the UCI originals are full cartesian products of the
//     feature domains labelled by a deterministic model. Balance and
//     Tic-Tac-Toe are reconstructed exactly; Car and Nursery follow a
//     re-implementation of their documented concept hierarchies (same
//     domains, sizes, and the published hard rules; the fine-grained
//     utility tables are approximated and the resulting class skew matches
//     the originals closely).
//   - Congressional/Vote, Chess (kr-vs-kp) and Mushroom are real-world
//     collections, replaced by seeded generative models calibrated to the
//     published schema (d, n, k*, per-feature cardinalities) and to the
//     clustering-difficulty regime the paper reports.
//   - Syn_n and Syn_d are the paper's own synthetic scalability sets:
//     well-separated clusters with configurable n and d.
//
// Every generator is deterministic given its *rand.Rand (the exact rule data
// sets take no randomness at all).
package datasets
