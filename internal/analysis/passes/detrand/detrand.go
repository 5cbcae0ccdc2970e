// Package detrand enforces the PR 1 determinism contract on random-number
// use: no draws from the global math/rand state, no time-seeded generators,
// and no *rand.Rand draws inside closures handed to internal/parallel —
// every rng must be explicitly seeded and must stay on one goroutine so
// WithParallelism(1) and WithParallelism(n) remain bit-for-bit identical.
package detrand

import (
	"go/ast"
	"go/types"

	"mcdc/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: `flag nondeterministic random-number use

The determinism contract requires every random stream to come from an
explicitly seeded *rand.Rand owned by exactly one goroutine. This pass flags
(1) calls that draw from the global math/rand (or math/rand/v2) state, such
as rand.Intn and rand.Shuffle, (2) rand.New/rand.NewSource seeded from
time.Now, and (3) any *rand.Rand method call lexically inside a function
literal passed to internal/parallel's ForEach, ForEachTurns, ForEachChunk
or MapReduce — a draw per task would make results depend on the worker
count.`,
	Run: run,
}

const (
	randPath   = "math/rand"
	randV2Path = "math/rand/v2"
)

// constructors are the math/rand package-level functions that build values
// rather than drawing from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // rand/v2
	"NewChaCha8": true,
}

// parallelEntryPoints are internal/parallel's fan-out functions; any rng
// draw inside a closure passed to them runs on an arbitrary worker.
var parallelEntryPoints = map[string]bool{
	"ForEach":      true,
	"ForEachTurns": true,
	"ForEachChunk": true,
	"MapReduce":    true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkGlobalDraw(pass, call)
			checkTimeSeed(pass, call)
			checkParallelClosure(pass, call)
			return true
		})
	}
	return nil, nil
}

func isRandPath(p string) bool { return p == randPath || p == randV2Path }

// checkGlobalDraw flags package-level math/rand calls that use the shared
// global source.
func checkGlobalDraw(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !isRandPath(analysis.PkgPathOf(fn)) {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // method on *rand.Rand etc. — fine outside parallel closures
	}
	if constructors[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "%s.%s draws from the process-global rand state; use an explicitly seeded *rand.Rand (determinism contract, PR 1)", fn.Pkg().Name(), fn.Name())
}

// checkTimeSeed flags rand.New/rand.NewSource whose argument derives from
// time.Now — a seed that changes run to run.
func checkTimeSeed(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !isRandPath(analysis.PkgPathOf(fn)) {
		return
	}
	if fn.Name() != "New" && fn.Name() != "NewSource" {
		return
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if analysis.IsPkgFunc(pass.TypesInfo, inner, "time", "Now") {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			pass.Reportf(call.Pos(), "rand.%s seeded from time.Now is nondeterministic; thread an explicit seed instead (determinism contract, PR 1)", fn.Name())
			return
		}
	}
}

// checkParallelClosure flags *rand.Rand method calls inside function
// literals passed to internal/parallel fan-outs.
func checkParallelClosure(pass *analysis.Pass, call *ast.CallExpr) {
	if !isParallelFanOut(pass.TypesInfo, call) {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := pass.TypesInfo.Types[sel.X].Type
			if recv == nil {
				return true
			}
			if analysis.NamedTypeIs(recv, randPath, "Rand") || analysis.NamedTypeIs(recv, randV2Path, "Rand") {
				pass.Reportf(inner.Pos(), "*rand.Rand draw inside a closure passed to internal/parallel.%s: results would depend on the worker count; draw on one goroutine and pass values in (determinism contract, PR 1)", fanOutName(pass.TypesInfo, call))
			}
			return true
		})
	}
}

func isParallelFanOut(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || !parallelEntryPoints[fn.Name()] {
		return false
	}
	return analysis.PathWithin(analysis.PkgPathOf(fn), "internal/parallel")
}

func fanOutName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "ForEach"
}
