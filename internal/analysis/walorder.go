package analysis

// walorder pins the durability ordering invariant from the storage design:
// within a critical section, every slab effect an operation implies must be
// issued BEFORE its WAL record is appended. The checkpoint scheme depends on
// it — checkpoint = fsync the slab files — so a WAL record appended before
// its slab write opens a window where a rotation-triggered checkpoint can
// prune the only durable trace of the op while the slab files still lack its
// bytes; a crash then resurrects the old state (the exact shape of the PR 6
// delete-resurrection bug).
//
// Lexical form of the rule: in any one function, no mutating call on a slab
// manager (`X.slabs.Update/Put/Delete/ZeroSlot/RecycleSlots`) may appear
// after an append. An append is an `AppendPut`/`AppendDel`/`AppendBatch`
// call; a `logOp` call, which queues a record into the batch's pending group
// (internal/core appends only whole groups, in queue order, so a mutation's
// record is as good as appended once queued); or a call to a function of the
// same file whose body contains one of those — the engine's one AppendBatch
// sits in a flush helper, and calling the helper mid-function is calling
// AppendBatch. Helpers are resolved one level deep, by name. Branch arms
// merge conservatively (an append in either arm poisons the tail).

import (
	"go/ast"
	"go/token"
)

var walorderAnalyzer = &Analyzer{
	Name: "walorder",
	Doc:  "no slab effect is issued after the WAL append that describes it",
	Run:  runWalorder,
}

var walAppendMethods = map[string]bool{
	"AppendPut": true, "AppendDel": true, "AppendBatch": true, "logOp": true,
}

// slabEffectMethods are the slab-manager mutations whose page-cache writes
// the WAL record describes.
var slabEffectMethods = map[string]bool{
	"Update": true, "Put": true, "Delete": true, "ZeroSlot": true, "RecycleSlots": true,
}

func runWalorder(f *SrcFile) []Diagnostic {
	w := &walorderWalker{f: f, helpers: map[string]bool{}}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if recv, name, ok := callee(c); ok && recv != "" && walAppendMethods[name] {
					w.helpers[fd.Name.Name] = true
				}
			}
			return !w.helpers[fd.Name.Name]
		})
	}
	for _, u := range funcUnits(f) {
		appended := token.NoPos
		w.walk(u.body.List, &appended)
	}
	return w.diags
}

type walorderWalker struct {
	f       *SrcFile
	helpers map[string]bool // this file's functions that append directly
	diags   []Diagnostic
}

// walk tracks the position of the first WAL append on the current path
// (NoPos when none yet) and flags slab effects after it.
func (w *walorderWalker) walk(list []ast.Stmt, appended *token.Pos) {
	for _, s := range list {
		w.stmt(s, appended)
	}
}

func (w *walorderWalker) stmt(s ast.Stmt, appended *token.Pos) {
	switch v := s.(type) {
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init, appended)
		}
		w.scan(v.Cond, appended)
		bodyApp := *appended
		w.walk(v.Body.List, &bodyApp)
		elseApp := *appended
		if v.Else != nil {
			w.stmt(v.Else, &elseApp)
		}
		// Conservative merge: an append on any non-terminating arm poisons
		// the statements after the if.
		if bodyApp != token.NoPos && !terminates(v.Body.List) {
			*appended = bodyApp
		}
		if elseApp != token.NoPos && (v.Else == nil || !stmtTerminates(v.Else)) {
			if *appended == token.NoPos {
				*appended = elseApp
			}
		}
	case *ast.ForStmt:
		if v.Init != nil {
			w.stmt(v.Init, appended)
		}
		w.scan(v.Cond, appended)
		w.walk(v.Body.List, appended)
		if v.Post != nil {
			w.stmt(v.Post, appended)
		}
	case *ast.RangeStmt:
		w.scan(v.X, appended)
		w.walk(v.Body.List, appended)
	case *ast.BlockStmt:
		w.walk(v.List, appended)
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init, appended)
		}
		w.scan(v.Tag, appended)
		w.clauses(v.Body, appended)
	case *ast.TypeSwitchStmt:
		w.clauses(v.Body, appended)
	case *ast.SelectStmt:
		w.clauses(v.Body, appended)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, appended)
	case *ast.GoStmt:
		// A new goroutine is a new critical-section story.
		fresh := token.NoPos
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			w.walk(lit.Body.List, &fresh)
		}
	default:
		w.scanStmt(s, appended)
	}
}

func (w *walorderWalker) clauses(body *ast.BlockStmt, appended *token.Pos) {
	merged := token.NoPos
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
		case *ast.CommClause:
			stmts = cc.Body
		}
		arm := *appended
		w.walk(stmts, &arm)
		if arm != token.NoPos && !terminates(stmts) && merged == token.NoPos {
			merged = arm
		}
	}
	if merged != token.NoPos {
		*appended = merged
	}
}

// scanStmt applies scan to every expression in a simple statement.
func (w *walorderWalker) scanStmt(s ast.Stmt, appended *token.Pos) {
	ast.Inspect(s, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// Deferred/assigned closures run on their own schedule relative
			// to the append; funcUnits analyzes their bodies independently.
			_ = lit
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			w.checkCall(c, appended)
		}
		return true
	})
}

func (w *walorderWalker) scan(e ast.Expr, appended *token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			w.checkCall(c, appended)
		}
		return true
	})
}

func (w *walorderWalker) checkCall(c *ast.CallExpr, appended *token.Pos) {
	recv, name, ok := callee(c)
	if !ok {
		return
	}
	if w.helpers[name] || recv != "" && walAppendMethods[name] {
		if *appended == token.NoPos {
			*appended = c.Pos()
		}
		return
	}
	if slabEffectMethods[name] && isSlabChain(recv) && *appended != token.NoPos {
		w.diags = append(w.diags, w.f.diag("walorder", c.Pos(),
			"slab effect %s.%s issued after the WAL append at line %d: every slab write must precede the record that describes it (checkpoint = fsync the slabs)",
			recv, name, w.f.pos(*appended).Line))
	}
}

// isSlabChain reports whether the receiver chain names a slab manager
// ("p.slabs", "db.slabs", a local "slabs" or "mgr" of package slab).
func isSlabChain(chain string) bool {
	last := chain
	if i := lastDot(chain); i >= 0 {
		last = chain[i+1:]
	}
	return last == "slabs" || last == "slab" || last == "slabMgr"
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}
