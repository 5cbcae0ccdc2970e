// Package densematrix enforces the condensed storage contract: n²-sized
// similarity/dissimilarity data moves through internal code as
// *similarity.Condensed, never as dense [][]float64 — the dense form costs
// double the memory plus a pointer per row, and no internal entry point
// takes or returns it.
package densematrix

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"mcdc/internal/analysis"
)

// Analyzer is the densematrix pass.
var Analyzer = &analysis.Analyzer{
	Name: "densematrix",
	Doc: `flag dense [][]float64 similarity/dissimilarity matrices in internal APIs

Condensed triangular storage (internal/similarity.Condensed) is the one
blessed representation for pairwise similarity data. A function under
internal/ that accepts or returns a [][]float64 recognizable as a
similarity/dissimilarity matrix — by a parameter or result named like sim,
dissim, dist, or proximity, or by a function name mentioning
similarity/dissimilarity/pairwise/proximity/hamming — is flagged. A
deliberate exception carries a //lint:mcdcvet-ignore densematrix comment
with its reason.`,
	Run: run,
}

// matrixParamRE matches parameter/result names that conventionally carry
// pairwise similarity or dissimilarity data.
var matrixParamRE = regexp.MustCompile(`(?i)^(sims?|similarit(y|ies)|dissims?|dissimilarit(y|ies)|dists?|distances?|prox|proximit(y|ies))$`)

// matrixFuncRE matches function names that announce a pairwise-matrix
// computation.
var matrixFuncRE = regexp.MustCompile(`(?i)(similarity|dissimilarity|pairwise|proximity|hamming)`)

func run(pass *analysis.Pass) (any, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/") {
		return nil, nil // the contract governs internal APIs only
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type == nil {
				continue
			}
			checkFieldList(pass, fd, fd.Type.Params, "accepts")
			checkFieldList(pass, fd, fd.Type.Results, "returns")
		}
	}
	return nil, nil
}

func checkFieldList(pass *analysis.Pass, fd *ast.FuncDecl, fl *ast.FieldList, verb string) {
	if fl == nil {
		return
	}
	funcNamed := matrixFuncRE.MatchString(fd.Name.Name)
	for _, field := range fl.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil || !isDenseFloatMatrix(t) {
			continue
		}
		named := false
		for _, name := range field.Names {
			if matrixParamRE.MatchString(name.Name) {
				named = true
				break
			}
		}
		if !named && !funcNamed {
			continue // a [][]float64 that does not look like pairwise data
		}
		pass.Reportf(field.Pos(), "%s %s a dense [][]float64 similarity/dissimilarity matrix; use *similarity.Condensed (condensed storage contract)", fd.Name.Name, verb)
	}
}

func isDenseFloatMatrix(t types.Type) bool {
	s1, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	s2, ok := s1.Elem().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s2.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
