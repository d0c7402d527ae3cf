package analyzers

import (
	"go/ast"
	"go/types"
)

// LockIO flags blocking I/O reached while a sync.Mutex or sync.RWMutex
// is held: os.File method calls, filesystem calls in package os,
// net dials and listens (and any net type's methods), interface
// methods named Sync or Truncate (the shape of persist's WALFile), and
// time.Sleep. Holding a lock across disk or network latency parks
// every other reader and writer of that lock behind the disk; a lock
// that exists to order the I/O (the WAL's append mutex) says so in an
// ignore directive.
//
// The analysis is intra-procedural and tracks lock state linearly
// through each function body (branches are explored with the entry
// state; a branch that releases a lock and falls through merges as
// released). Locks taken by callers are invisible, so helper
// functions named *Locked are by convention audited at their call
// sites instead.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc: "blocking I/O (file writes, fsync, net calls, sleeps) while a sync.Mutex/RWMutex is held; " +
		"move the I/O outside the critical section or document why this lock exists to serialize it",
	Run: runLockIO,
}

func runLockIO(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass}
			w.walkStmts(fd.Body.List, lockSet{})
		}
	}
}

// lockSet maps the printed receiver expression of a held lock
// ("l.mu", "s") to the kind of hold ("Lock" or "RLock").
type lockSet map[string]string

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type lockWalker struct {
	pass *Pass
}

// walkStmts interprets the statement list with the given entry lock
// state and returns the state at its end.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held lockSet) lockSet {
	held = held.clone()
	for _, st := range stmts {
		held = w.walkStmt(st, held)
	}
	return held
}

func (w *lockWalker) walkStmt(st ast.Stmt, held lockSet) lockSet {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if name, kind, ok := lockCall(w.pass.Info, s.X); ok {
			if kind == "Lock" || kind == "RLock" {
				held[name] = kind
			} else {
				delete(held, name)
			}
			return held
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		if _, kind, ok := lockCall(w.pass.Info, s.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			// The lock stays held for the remainder of the function; the
			// entry in held already reflects that.
			return held
		}
		// A deferred call runs at return. If a deferred Unlock is also
		// pending, defers registered later run before it — i.e. under
		// the lock — so conservatively treat deferred I/O as locked
		// whenever anything is held here.
		w.scanExpr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's critical section.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, lockSet{})
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		bodyOut := w.walkStmts(s.Body.List, held)
		var outs []lockSet
		if !terminates(s.Body.List) {
			outs = append(outs, bodyOut)
		}
		if s.Else != nil {
			elseOut := w.walkStmt(s.Else, held.clone())
			if !stmtTerminates(s.Else) {
				outs = append(outs, elseOut)
			}
		} else {
			outs = append(outs, held)
		}
		return intersectLocks(outs, held)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		w.walkStmts(s.Body.List, held)
		return held
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkStmts(s.Body.List, held)
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		w.scanExpr(s.Value, held)
	}
	return held
}

// scanExpr reports sink calls inside e given the current lock state,
// descending into immediately-invoked function literals with the
// caller's state and into other literals with a clean one (they run
// later, in an unknown locking context).
func (w *lockWalker) scanExpr(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(x.Body.List, lockSet{})
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				for _, arg := range x.Args {
					w.scanExpr(arg, held)
				}
				w.walkStmts(lit.Body.List, held)
				return false
			}
			if len(held) > 0 {
				if desc := blockingIO(w.pass.Info, x); desc != "" {
					w.pass.Reportf(x.Pos(), "%s while %s is held", desc, heldNames(held))
				}
			}
		}
		return true
	})
}

func heldNames(held lockSet) string {
	names := make([]string, 0, len(held))
	for n, kind := range held {
		names = append(names, n+" ("+kind+")")
	}
	// Deterministic order for stable output.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func intersectLocks(outs []lockSet, fallback lockSet) lockSet {
	if len(outs) == 0 {
		return fallback
	}
	res := outs[0].clone()
	for _, o := range outs[1:] {
		for k := range res {
			if _, ok := o[k]; !ok {
				delete(res, k)
			}
		}
	}
	return res
}

func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// lockCall classifies e as a (R)Lock/(R)Unlock call on a sync.Mutex or
// sync.RWMutex (including promoted embeds) and names the lock by its
// receiver expression.
func lockCall(info *types.Info, e ast.Expr) (name, kind string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	fn := calleeOf(info, call)
	named := recvOf(fn)
	if !isNamed(named, "sync", "Mutex") && !isNamed(named, "sync", "RWMutex") {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// fileIOMethods are the *os.File methods that reach the disk.
var fileIOMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Read": true,
	"ReadAt": true, "Sync": true, "Truncate": true, "Close": true,
}

// osFSFuncs are the package-level os functions that touch the
// filesystem.
var osFSFuncs = map[string]bool{
	"OpenFile": true, "Open": true, "Create": true, "CreateTemp": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "Mkdir": true,
	"MkdirAll": true, "MkdirTemp": true, "ReadFile": true, "WriteFile": true,
	"ReadDir": true, "Truncate": true, "Link": true, "Symlink": true,
}

// blockingIO describes the call when it is a blocking I/O sink, or
// returns "" otherwise.
func blockingIO(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if recvIsInterface(fn) {
		if fn.Name() == "Sync" || fn.Name() == "Truncate" {
			return "interface method " + fn.Name()
		}
		return ""
	}
	if named := recvOf(fn); named != nil {
		if isNamed(named, "os", "File") && fileIOMethods[fn.Name()] {
			return "os.File." + fn.Name()
		}
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net" {
			return "net." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	switch fn.Pkg().Path() {
	case "os":
		if sigOf(fn).Recv() == nil && osFSFuncs[fn.Name()] {
			return "os." + fn.Name()
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen", "ListenPacket":
			return "net." + fn.Name()
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	return ""
}
