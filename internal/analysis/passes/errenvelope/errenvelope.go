// Package errenvelope enforces the PR 6 error contract in internal/server:
// every HTTP error response is the {"error","code"} envelope emitted by
// writeError, with a code drawn from the closed, documented table. http.Error
// and hand-rolled WriteHeader(4xx/5xx) bypass the envelope (and the
// request-id / error-counter plumbing riding on it); a writeError call with
// a code outside the table would silently extend the machine contract.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"mcdc/internal/analysis"
)

// Analyzer is the errenvelope pass.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: `flag error responses that bypass the {"error","code"} envelope

In internal/server packages this pass flags (1) any http.Error call, (2) any
w.WriteHeader with a constant status >= 400 outside the blessed emitters
writeError/writeJSON — relays that forward a backend's own status variable
are untouched — and (3) any writeError call, or errorFrame call (the one
constructor of in-band '!' error frames), whose code argument is not a
compile-time constant from the stable code table
(bad_request, unknown_model, unknown_session, conflict, version_mismatch,
overloaded, bad_gateway, forbidden, internal). A local variable is accepted
when every assignment to it in the enclosing function is a table constant —
the status/code pair-selection idiom. Adding a code is an API change: extend
the table in internal/server/errors.go and here, in the same commit.`,
	Run: run,
}

// stableCodes is the closed code table from internal/server/errors.go. Kept
// in lockstep by TestStableCodeTable in the server package.
var stableCodes = map[string]bool{
	"bad_request":      true,
	"unknown_model":    true,
	"unknown_session":  true,
	"conflict":         true,
	"version_mismatch": true,
	"overloaded":       true,
	"bad_gateway":      true,
	"forbidden":        true,
	"internal":         true,
}

// StableCodes returns a copy of the analyzer's code table (for the lockstep
// test in the server package).
func StableCodes() map[string]bool {
	out := make(map[string]bool, len(stableCodes))
	for k, v := range stableCodes {
		out[k] = v
	}
	return out
}

// blessedEmitters may call WriteHeader with error statuses: they are the
// envelope implementation itself.
var blessedEmitters = map[string]bool{"writeError": true, "writeJSON": true}

// codeArgIndex maps the envelope emitters to the position of their code
// argument: writeError for HTTP envelopes, errorFrame for the in-band error
// frames that daemon and gateway answer single assignments with.
var codeArgIndex = map[string]int{"writeError": 2, "errorFrame": 0}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PathWithin(pass.Pkg.Path(), "internal/server") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inEmitter := blessedEmitters[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkHTTPError(pass, call)
				if !inEmitter {
					checkWriteHeader(pass, call)
				}
				checkEnvelopeCode(pass, fd, call)
				return true
			})
		}
	}
	return nil, nil
}

func checkHTTPError(pass *analysis.Pass, call *ast.CallExpr) {
	if analysis.IsPkgFunc(pass.TypesInfo, call, "net/http", "Error") {
		pass.Reportf(call.Pos(), "http.Error bypasses the {\"error\",\"code\"} envelope; use writeError (error contract, PR 6)")
	}
}

func checkWriteHeader(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "WriteHeader" {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return // relaying a variable status (gateway paths) is fine
	}
	status, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || status < 400 {
		return
	}
	pass.Reportf(call.Pos(), "WriteHeader(%d) writes a bare error status without the {\"error\",\"code\"} envelope; use writeError (error contract, PR 6)", status)
}

func checkEnvelopeCode(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	idx, ok := codeArgIndex[id.Name]
	if !ok || len(call.Args) <= idx {
		return
	}
	arg := call.Args[idx]
	tv, ok := pass.TypesInfo.Types[arg]
	if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		code := constant.StringVal(tv.Value)
		if !stableCodes[code] {
			pass.Reportf(arg.Pos(), "%s code %q is not in the stable code table; codes are a machine contract — extend the table in errors.go and the errenvelope analyzer together (error contract, PR 6)", id.Name, code)
		}
		return
	}
	// Not a constant. Accept the status/code pair-selection idiom: a local
	// variable whose every assignment in the enclosing function is a table
	// constant (`status, code := 400, codeBadRequest; if ... { status, code =
	// 422, codeVersionMismatch }`).
	if v, ok := ast.Unparen(arg).(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[v]; obj != nil && localRangesOverTable(pass, fd, obj) {
			return
		}
	}
	pass.Reportf(arg.Pos(), "%s code argument must be a compile-time constant from the stable code table, or a local assigned only table constants (error contract, PR 6)", id.Name)
}

// localRangesOverTable reports whether obj is assigned somewhere in fd and
// every assignment (including its declaration) is a constant from the stable
// code table. A single non-constant or off-table assignment disqualifies it.
func localRangesOverTable(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	assigned, allTable := false, true
	record := func(rhs ast.Expr) {
		assigned = true
		tv, ok := pass.TypesInfo.Types[rhs]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String || !stableCodes[constant.StringVal(tv.Value)] {
			allTable = false
		}
	}
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		return pass.TypesInfo.Defs[id] == obj || pass.TypesInfo.Uses[id] == obj
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				// Multi-value form (from a call): opaque, disqualify.
				for _, l := range s.Lhs {
					if isObj(l) {
						assigned, allTable = true, false
					}
				}
				return true
			}
			for i, l := range s.Lhs {
				if isObj(l) {
					record(s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if pass.TypesInfo.Defs[name] == obj {
					if i < len(s.Values) {
						record(s.Values[i])
					} else {
						assigned, allTable = true, false // var code string: zero value
					}
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND && isObj(s.X) {
				assigned, allTable = true, false // address taken: writes invisible
			}
		}
		return true
	})
	return assigned && allTable
}
