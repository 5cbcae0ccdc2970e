// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/parser, go/build, and go/types.
//
// Why not the real thing: this module deliberately has no external
// dependencies (there is no go.sum, and CI caches key on go.mod alone), so
// the x/tools framework is not available to build against. The subset here —
// Analyzer, Pass, Diagnostic, a source-based package loader, and an
// analysistest-style runner driven by `// want` comments — is API-shaped
// like upstream so the repo's analyzers (internal/analysis/passes/...) could
// be ported to x/tools mechanically if the dependency policy ever changes.
//
// The suite exists to mechanize the repo's standing constraints (see
// ROADMAP.md): determinism of rng use under internal/parallel, slog-only
// logging in the serving layer, the {"error","code"} envelope, the
// placeMu→stateMu lock order, and the drain-body-before-first-write HTTP
// rule. cmd/mcdcvet bundles every pass and runs in CI over ./....
//
// Deliberate exceptions are suppressed in source with
//
//	//lint:mcdcvet-ignore <analyzer> <reason>
//
// on the flagged line or the line above. The analyzer name must be one the
// driver knows and the reason must be non-empty — a malformed ignore is
// itself a diagnostic, so every suppression stays auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: a name (used in diagnostics
// and ignore comments), user-facing documentation, and the run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:mcdcvet-ignore comments. By convention it is a short
	// lowercase word ([a-z]+).
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Run applies the analyzer to a package. It reports findings through
	// pass.Report / pass.Reportf. The first result is unused today and
	// exists for upstream API parity.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one package to an Analyzer.Run. All fields are read-only to
// the analyzer; findings flow back through Report.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File // parsed with comments, in deterministic file order
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver applies ignore-comment
	// suppression afterwards, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
