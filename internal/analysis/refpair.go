package analysis

// refpair enforces acquire/release pairing on the refcounted and epoch-
// pinned resources: every `x := X.Acquire()` / `x := p.acquireView()` must
// be matched by `x.Release()` / `x.release()` on every path out of the
// function (a defer, or a release before each return including early error
// returns), and every `X.PinEpoch()` by an `X.UnpinEpochDeferred()`
// likewise.
//
// A handle that escapes the function — returned, stored into a struct or
// captured by a non-deferred closure, passed as an argument — transfers
// ownership and stops being tracked: the pairing obligation moved with it,
// which an intra-procedural analyzer cannot follow. Cross-function pairs
// (a cursor pinning in acquire() and unpinning in release()) are annotated
// at the pin site with //prismvet:ignore and the ownership argument.

import (
	"go/ast"
	"go/token"
)

var refpairAnalyzer = &Analyzer{
	Name: "refpair",
	Doc:  "snapshot/view Acquires and epoch Pins are Released/Unpinned on every path",
	Run:  runRefpair,
}

var acquireMethods = map[string]bool{"Acquire": true, "acquireView": true}
var releaseMethods = map[string]bool{"Release": true, "release": true}
var unpinMethods = map[string]bool{"UnpinEpochDeferred": true}

func runRefpair(f *SrcFile) []Diagnostic {
	w := &refpairWalker{f: f}
	for _, u := range funcUnits(f) {
		w.aliases = aliases{}
		w.reported = map[token.Pos]bool{}
		open := openSet{}
		w.walk(u.body.List, open)
		if !terminates(u.body.List) {
			w.reportOpen(open, u.body.Rbrace, "the function's end")
		}
	}
	return w.diags
}

// openTok is one live acquire obligation.
type openTok struct {
	pos     token.Pos
	what    string // "snapshot x" / "epoch pin on p.slabs"
	escaped bool
}

// openSet maps token keys (handle ident name, or "epoch:<chain>") to their
// obligations.
type openSet map[string]*openTok

func (o openSet) clone() openSet {
	c := make(openSet, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

type refpairWalker struct {
	f        *SrcFile
	aliases  aliases
	reported map[token.Pos]bool
	diags    []Diagnostic
}

func (w *refpairWalker) reportOpen(open openSet, at token.Pos, where string) {
	for _, tok := range open {
		if tok.escaped || w.reported[tok.pos] {
			continue
		}
		w.reported[tok.pos] = true
		w.diags = append(w.diags, w.f.diag("refpair", tok.pos,
			"%s acquired here is not released on the path reaching %s (line %d)",
			tok.what, where, w.f.pos(at).Line))
	}
}

func (w *refpairWalker) walk(list []ast.Stmt, open openSet) {
	for _, s := range list {
		w.stmt(s, open)
	}
}

func (w *refpairWalker) stmt(s ast.Stmt, open openSet) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		w.aliases.record(v)
		// `x := X.Acquire()` opens an obligation on x; any other use of an
		// open handle on the RHS (aliasing, field store) escapes it.
		if len(v.Lhs) == 1 && len(v.Rhs) == 1 {
			if id, ok := v.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if c, ok := ast.Unparen(v.Rhs[0]).(*ast.CallExpr); ok {
					if recv, name, ok := callee(c); ok && acquireMethods[name] && recv != "" {
						w.scanUses(v.Rhs[0], open) // args may use other handles
						// Re-acquiring into a name that still holds an open
						// handle leaks the old one.
						if tok, ok := open[id.Name]; ok && !tok.escaped {
							w.reportOpen(openSet{id.Name: tok}, v.Pos(), "its rebinding")
						}
						open[id.Name] = &openTok{pos: c.Pos(), what: "snapshot/view " + id.Name}
						return
					}
				}
				// Rebinding an ident that holds an open handle loses it.
				if tok, ok := open[id.Name]; ok && !tok.escaped {
					w.reportOpen(openSet{id.Name: tok}, v.Pos(), "its rebinding")
					delete(open, id.Name)
				}
			}
		}
		w.scanUses(v.Rhs[0], open)
		for _, e := range v.Rhs[1:] {
			w.scanUses(e, open)
		}
		w.applyCalls(s, open, false)
	case *ast.ExprStmt:
		w.scanUses(v.X, open)
		w.applyCalls(s, open, false)
	case *ast.DeferStmt:
		// A deferred release discharges the obligation for every path that
		// follows; defers registered before the acquire are out of scope
		// (real code defers right after acquiring).
		w.applyCalls(s, open, true)
		for _, arg := range v.Call.Args {
			w.scanUses(arg, open)
		}
	case *ast.GoStmt:
		// The handle now lives on another goroutine's schedule.
		w.escapeUses(v, open)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			w.escapeExprIdents(e, open)
		}
		w.reportOpen(open, v.Pos(), "this return")
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init, open)
		}
		w.scanUses(v.Cond, open)
		body := open.clone()
		w.walk(v.Body.List, body)
		var elseSet openSet
		if v.Else != nil {
			elseSet = open.clone()
			w.stmt(v.Else, elseSet)
		}
		// A token survives the if when any surviving arm leaves it open.
		bodyTerm := terminates(v.Body.List)
		elseTerm := v.Else != nil && stmtTerminates(v.Else)
		merged := openSet{}
		add := func(set openSet) {
			for k, tok := range set {
				merged[k] = tok
			}
		}
		if !bodyTerm {
			add(body)
		}
		if v.Else != nil && !elseTerm {
			add(elseSet)
		}
		if v.Else == nil {
			add(open) // the cond-false path falls through unchanged
		}
		if bodyTerm && v.Else != nil && elseTerm {
			// No arm survives; keep state for the (unreachable) tail.
			add(open)
		}
		for k := range open {
			if _, ok := merged[k]; !ok {
				delete(open, k)
			}
		}
		for k, tok := range merged {
			open[k] = tok
		}
	case *ast.ForStmt:
		if v.Init != nil {
			w.stmt(v.Init, open)
		}
		if v.Cond != nil {
			w.scanUses(v.Cond, open)
		}
		w.walk(v.Body.List, open) // treat the body as running once
		if v.Post != nil {
			w.stmt(v.Post, open)
		}
	case *ast.RangeStmt:
		w.scanUses(v.X, open)
		w.walk(v.Body.List, open)
	case *ast.BlockStmt:
		w.walk(v.List, open)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Arms may release on terminating paths; walk each with a clone and
		// keep tokens open unless every surviving arm released them.
		w.switchLike(s, open)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, open)
	case *ast.SendStmt:
		w.escapeExprIdents(v.Value, open)
	}
}

func (w *refpairWalker) switchLike(s ast.Stmt, open openSet) {
	var body *ast.BlockStmt
	switch v := s.(type) {
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init, open)
		}
		if v.Tag != nil {
			w.scanUses(v.Tag, open)
		}
		body = v.Body
	case *ast.TypeSwitchStmt:
		body = v.Body
	case *ast.SelectStmt:
		body = v.Body
	}
	survivors := []openSet{}
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cc.Body
		}
		arm := open.clone()
		w.walk(stmts, arm)
		if !terminates(stmts) {
			survivors = append(survivors, arm)
		}
	}
	// A switch with a default arm (and every select: it blocks until some
	// arm fires) always executes one arm, so the post-state is the union of
	// the surviving arms alone. Without a default the match may fall
	// through, and the pre-switch state survives too.
	if _, isSelect := s.(*ast.SelectStmt); isSelect {
		hasDefault = true
	}
	merged := openSet{}
	if !hasDefault {
		for k, tok := range open {
			merged[k] = tok
		}
	}
	for _, sv := range survivors {
		for k, tok := range sv {
			merged[k] = tok
		}
	}
	for k := range open {
		delete(open, k)
	}
	for k, tok := range merged {
		open[k] = tok
	}
}

// applyCalls scans a statement for release/unpin/pin calls and updates the
// open set. isDefer marks deferred statements, whose releases discharge the
// obligation for the rest of the function (including inside closures).
func (w *refpairWalker) applyCalls(s ast.Stmt, open openSet, isDefer bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !isDefer {
			_ = lit
			return false // non-deferred closures: handled as escapes
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, cok := callee(c)
		if !cok || recv == "" {
			return true
		}
		switch {
		case name == "PinEpoch":
			chain := w.aliases.canon(recv)
			if !isDefer {
				open["epoch:"+chain] = &openTok{pos: c.Pos(), what: "epoch pin on " + chain}
			}
		case unpinMethods[name]:
			delete(open, "epoch:"+w.aliases.canon(recv))
		case releaseMethods[name] && len(c.Args) == 0:
			// tok.Release(): recv must be exactly the tracked ident.
			delete(open, recv)
		}
		return true
	})
}

// scanUses marks open handles that escape through e: used as a call
// argument, in a composite literal, captured by a closure, or stored
// somewhere. Method calls ON a handle (snap.Find(k)) are reads, not escapes.
func (w *refpairWalker) scanUses(e ast.Expr, open openSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// Captured by a closure whose schedule we can't see.
			w.escapeUses(v, open)
			return false
		case *ast.CallExpr:
			for _, arg := range v.Args {
				w.escapeExprIdents(arg, open)
			}
			// Keep descending: the receiver chain and nested calls.
			return true
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				w.escapeExprIdents(el, open)
			}
			return true
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				w.escapeExprIdents(v.X, open)
			}
			return true
		}
		return true
	})
}

// escapeUses marks every open handle referenced anywhere under n as escaped.
func (w *refpairWalker) escapeUses(n ast.Node, open openSet) {
	ast.Inspect(n, func(nn ast.Node) bool {
		if id, ok := nn.(*ast.Ident); ok {
			if tok, ok := open[id.Name]; ok {
				tok.escaped = true
			}
		}
		return true
	})
}

// escapeExprIdents marks a handle escaped when e IS that handle (a bare
// identifier, possibly behind & or parens).
func (w *refpairWalker) escapeExprIdents(e ast.Expr, open openSet) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if tok, ok := open[v.Name]; ok {
			tok.escaped = true
		}
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			w.escapeExprIdents(v.X, open)
		}
	case *ast.KeyValueExpr:
		w.escapeExprIdents(v.Value, open)
	case *ast.FuncLit:
		w.escapeUses(v, open)
	}
}
