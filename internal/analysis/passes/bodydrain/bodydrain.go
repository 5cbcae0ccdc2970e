// Package bodydrain enforces the PR 6 HTTP/1.x rule: a handler must consume
// the request stream fully before writing any response byte. Writing early
// while the client is still streaming the body makes the server's TCP stack
// reset the connection under load, truncating the response the client sees —
// the exact bug class the wire-protocol handlers were rebuilt to avoid
// (accumulate the response, flush after EOF).
//
// The check is a lexical, branch-aware heuristic. Within any function that
// has both an http.ResponseWriter and a *http.Request parameter it walks the
// statements in order, tracking (a) aliases of r.Body created through the
// standard wrappers (bufio.NewReader, json.NewDecoder, io.LimitReader,
// http.MaxBytesReader, ...), and (b) whether a response write may already
// have happened on the current path. A branch that terminates (return,
// break, panic) does not leak its writes into the statements after it, so
// the ubiquitous "writeError(...); return" early-exit stays clean. Loop
// bodies are scanned twice so a write on iteration i followed by a body read
// on iteration i+1 is caught. Calls that receive both the writer and a body
// alias (decodeJSON, http.MaxBytesReader) count as reads, not writes — the
// callee is analyzed on its own. Deferred and go'd calls are skipped: they
// run outside the lexical order.
package bodydrain

import (
	"go/ast"
	"go/token"
	"go/types"

	"mcdc/internal/analysis"
)

// Analyzer is the bodydrain pass.
var Analyzer = &analysis.Analyzer{
	Name: "bodydrain",
	Doc: `flag handlers that may write a response before draining the request body

HTTP/1.x handlers must consume the request stream fully before the first
response byte (standing constraint, PR 6). This pass flags a read from
r.Body (or an alias of it) that a response write — w.Write, w.WriteHeader,
writeError/writeJSON, fmt.Fprint*(w, ...) — may lexically precede on the
same path. Accumulate the response in a buffer and flush after the request
stream hits EOF, or drain with io.Copy(io.Discard, r.Body) first.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w, r := handlerParams(pass, ftype)
			if w == nil || r == nil {
				return true
			}
			c := &checker{
				pass:     pass,
				writers:  map[types.Object]bool{w: true},
				bodies:   map[types.Object]bool{},
				request:  r,
				reported: map[token.Pos]bool{},
			}
			c.walk(body.List, false)
			return true
		})
	}
	return nil, nil
}

// handlerParams returns the first http.ResponseWriter parameter and the
// first *http.Request parameter, or nils.
func handlerParams(pass *analysis.Pass, ftype *ast.FuncType) (w, r types.Object) {
	if ftype.Params == nil {
		return nil, nil
	}
	for _, field := range ftype.Params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil {
			continue
		}
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if w == nil && analysis.NamedTypeIs(t, "net/http", "ResponseWriter") {
				w = obj
			}
			if r == nil {
				if p, ok := t.(*types.Pointer); ok && analysis.NamedTypeIs(p.Elem(), "net/http", "Request") {
					r = obj
				}
			}
		}
	}
	return w, r
}

// bodyWrappers are functions through which a body alias propagates into a
// new variable: dec := json.NewDecoder(r.Body), br := bufio.NewReader(r.Body).
var bodyWrappers = map[string]map[string]bool{
	"bufio":         {"NewReader": true, "NewReaderSize": true, "NewScanner": true},
	"encoding/json": {"NewDecoder": true},
	"encoding/xml":  {"NewDecoder": true},
	"io":            {"LimitReader": true, "TeeReader": true, "NopCloser": true},
	"net/http":      {"MaxBytesReader": true},
}

// requestBodyReaders are *http.Request methods that consume the body.
var requestBodyReaders = map[string]bool{
	"ParseForm": true, "ParseMultipartForm": true, "FormValue": true,
	"PostFormValue": true, "FormFile": true, "MultipartReader": true,
}

type checker struct {
	pass     *analysis.Pass
	writers  map[types.Object]bool // the ResponseWriter param and its aliases
	bodies   map[types.Object]bool // aliases of r.Body
	request  types.Object
	reported map[token.Pos]bool
}

// walk processes one statement list. wrote says whether a response write may
// already have happened on the path entering the list; it returns whether
// one may have happened on any path that falls out the bottom, and whether
// every path through the list terminates (return/branch/panic).
func (c *checker) walk(list []ast.Stmt, wrote bool) (bool, bool) {
	for _, stmt := range list {
		var terminated bool
		wrote, terminated = c.stmt(stmt, wrote)
		if terminated {
			return wrote, true
		}
	}
	return wrote, false
}

func (c *checker) stmt(stmt ast.Stmt, wrote bool) (bool, bool) {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			wrote = c.expr(e, wrote)
		}
		return wrote, true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; their effect on the wider
		// control flow is approximated as termination of this path.
		return wrote, true
	case *ast.ExprStmt:
		if isPanic(c.pass.TypesInfo, s.X) {
			return c.expr(s.X, wrote), true
		}
		return c.expr(s.X, wrote), false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			wrote = c.expr(rhs, wrote)
		}
		c.propagateAliases(s)
		return wrote, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						wrote = c.expr(v, wrote)
					}
					c.propagateSpecAliases(vs)
				}
			}
		}
		return wrote, false
	case *ast.DeferStmt, *ast.GoStmt:
		return wrote, false // runs outside the lexical order; skip
	case *ast.BlockStmt:
		return c.walk(s.List, wrote)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, wrote)
	case *ast.IfStmt:
		entry := wrote
		if s.Init != nil {
			wrote, _ = c.stmt(s.Init, wrote)
		}
		wrote = c.expr(s.Cond, wrote)
		thenWrote, thenTerm := c.walk(s.Body.List, wrote)
		elseWrote, elseTerm := wrote, false
		hasElse := s.Else != nil
		if hasElse {
			elseWrote, elseTerm = c.stmt(s.Else, wrote)
		}
		if thenTerm && !hasElse {
			// The guard idiom: `if !decodeJSON(w, r, &v) { return }`. The
			// helper writes only on the path that then terminates, so the
			// continuation keeps the state from before the guard.
			return entry, false
		}
		out := wrote
		if !thenTerm {
			out = out || thenWrote
		}
		if hasElse && !elseTerm {
			out = out || elseWrote
		}
		return out, thenTerm && hasElse && elseTerm
	case *ast.ForStmt:
		if s.Init != nil {
			wrote, _ = c.stmt(s.Init, wrote)
		}
		if s.Cond != nil {
			wrote = c.expr(s.Cond, wrote)
		}
		// Two passes: the second sees writes from the first, so a write on
		// one iteration followed by a body read on the next is caught.
		w1, _ := c.walk(s.Body.List, wrote)
		w2, _ := c.walk(s.Body.List, wrote || w1)
		if s.Post != nil {
			c.stmt(s.Post, w2)
		}
		return wrote || w1 || w2, false
	case *ast.RangeStmt:
		wrote = c.expr(s.X, wrote)
		w1, _ := c.walk(s.Body.List, wrote)
		w2, _ := c.walk(s.Body.List, wrote || w1)
		return wrote || w1 || w2, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			wrote, _ = c.stmt(s.Init, wrote)
		}
		if s.Tag != nil {
			wrote = c.expr(s.Tag, wrote)
		}
		return c.caseClauses(s.Body, wrote)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			wrote, _ = c.stmt(s.Init, wrote)
		}
		wrote, _ = c.stmt(s.Assign, wrote)
		return c.caseClauses(s.Body, wrote)
	case *ast.SelectStmt:
		return c.caseClauses(s.Body, wrote)
	case *ast.SendStmt:
		wrote = c.expr(s.Chan, wrote)
		return c.expr(s.Value, wrote), false
	case *ast.IncDecStmt:
		return c.expr(s.X, wrote), false
	default:
		return wrote, false
	}
}

// caseClauses merges the branches of a switch/select body.
func (c *checker) caseClauses(body *ast.BlockStmt, wrote bool) (bool, bool) {
	out := wrote
	allTerm := true
	sawDefault := false
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				wrote = c.expr(e, wrote)
			}
			sawDefault = sawDefault || cc.List == nil
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				wrote, _ = c.stmt(cc.Comm, wrote)
			}
			sawDefault = sawDefault || cc.Comm == nil
			list = cc.Body
		}
		cw, ct := c.walk(list, wrote)
		if !ct {
			out = out || cw
			allTerm = false
		}
	}
	return out, allTerm && sawDefault && len(body.List) > 0
}

// expr scans one expression for read/write events in lexical order and
// returns the updated may-have-written state. Function literals are skipped.
func (c *checker) expr(e ast.Expr, wrote bool) bool {
	if e == nil {
		return wrote
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch c.classify(call) {
		case readEvent:
			if wrote {
				c.report(call.Pos())
			}
		case writeEvent:
			wrote = true
		}
		return true
	})
	return wrote
}

type eventKind int

const (
	noEvent eventKind = iota
	readEvent
	writeEvent
)

// classify decides what a call does to the response/request streams:
// touching a body alias → read; touching only the writer → write (except
// w.Header() bookkeeping); touching both → read, trusting the callee
// (decodeJSON et al.) to drain before it writes — the callee gets its own
// analysis.
func (c *checker) classify(call *ast.CallExpr) eventKind {
	readsBody := c.mentionsBody(call)
	touchesWriter := c.mentionsWriter(call)
	switch {
	case readsBody:
		return readEvent
	case touchesWriter:
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Header" && c.isWriter(sel.X) {
			return noEvent
		}
		return writeEvent
	}
	return noEvent
}

func (c *checker) report(pos token.Pos) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "request body is read after a response write may have happened on this path; HTTP/1.x requires draining the request stream before the first response byte (PR 6) — buffer the response and flush after EOF")
}

// mentionsBody reports whether any direct child expression of call (its
// fun/receiver or arguments) references r.Body, a tracked body alias, or a
// body-consuming *http.Request method.
func (c *checker) mentionsBody(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if c.isBodyExpr(sel.X) {
			return true // method call on r.Body or an alias
		}
		if c.objOf(sel.X) == c.request && requestBodyReaders[sel.Sel.Name] {
			return true
		}
	}
	for _, arg := range call.Args {
		if c.containsBodyRef(arg) {
			return true
		}
	}
	return false
}

func (c *checker) mentionsWriter(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.isWriter(sel.X) {
		return true
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && c.writers[c.pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func (c *checker) containsBodyRef(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if expr, ok := n.(ast.Expr); ok && c.isBodyExpr(expr) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBodyExpr reports whether e is r.Body or a tracked alias identifier.
func (c *checker) isBodyExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "Body" && c.objOf(x.X) == c.request
	case *ast.Ident:
		return c.bodies[c.pass.TypesInfo.Uses[x]]
	}
	return false
}

func (c *checker) isWriter(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return c.writers[c.pass.TypesInfo.Uses[id]]
}

func (c *checker) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return c.pass.TypesInfo.Uses[id]
}

// propagateAliases extends the alias sets through assignments: a variable
// assigned from r.Body (optionally through the standard wrapper
// constructors) becomes a body alias; one assigned from an expression
// containing the writer becomes a writer alias.
func (c *checker) propagateAliases(s *ast.AssignStmt) {
	if len(s.Lhs) == 0 || len(s.Rhs) == 0 {
		return
	}
	// Only the common 1:1 and 2:1 (val, err :=) shapes matter here.
	rhs := s.Rhs[0]
	if len(s.Rhs) == len(s.Lhs) {
		for i := range s.Lhs {
			c.propagateOne(s.Lhs[i], s.Rhs[i])
		}
		return
	}
	c.propagateOne(s.Lhs[0], rhs)
}

func (c *checker) propagateSpecAliases(vs *ast.ValueSpec) {
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		c.propagateOne(name, vs.Values[i])
	}
}

func (c *checker) propagateOne(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if c.isBodyAliasSource(rhs) {
		c.bodies[obj] = true
		return
	}
	// Writer aliases propagate through any expression shape (statusWriter
	// wrapping, interface upcasts).
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if wid, ok := n.(*ast.Ident); ok && c.writers[c.pass.TypesInfo.Uses[wid]] {
			found = true
			return false
		}
		return true
	})
	if found {
		c.writers[obj] = true
	}
}

// isBodyAliasSource reports whether rhs is r.Body, an existing alias, or an
// allowlisted wrapper constructor applied (possibly nested) to one.
func (c *checker) isBodyAliasSource(rhs ast.Expr) bool {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.SelectorExpr, *ast.Ident:
		return c.isBodyExpr(x.(ast.Expr))
	case *ast.CallExpr:
		fn := analysis.Callee(c.pass.TypesInfo, x)
		if fn == nil {
			return false
		}
		names := bodyWrappers[analysis.PkgPathOf(fn)]
		if names == nil || !names[fn.Name()] {
			return false
		}
		for _, arg := range x.Args {
			if c.isBodyAliasSource(arg) || c.isBodyExpr(arg) {
				return true
			}
		}
	}
	return false
}

func isPanic(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
