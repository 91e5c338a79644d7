package lint

import (
	"go/ast"
	"go/types"
)

// condwaitAnalyzer enforces sync.Cond discipline. runtime.Session
// (internal/runtime/session.go) parks Close on a shared Cond until the
// in-flight operation ends, which makes two classic mistakes live
// hazards in this tree:
//
//  1. A Cond used by value. sync.Cond must be constructed with
//     sync.NewCond so its Locker is set; a zero-value Cond (var
//     declaration, value field initialised by a composite literal, or
//     a bare sync.Cond{} literal) panics with a nil Locker on the
//     first Wait, and copying a Cond after first use is undefined.
//     The analyzer flags zero-value sync.Cond declarations and
//     composite-literal fields, and value (non-pointer) struct fields
//     of type sync.Cond — the field forces every method call through
//     a copyable value.
//
//  2. Wait outside a loop. Wait releases the lock, sleeps, and
//     re-acquires — but a wakeup is a hint, not a guarantee: Broadcast
//     wakes every waiter and only one wins the predicate, so the
//     caller must re-check in a for loop ("for !cond { c.Wait() }").
//     An if-guarded or bare Wait is a lost-wakeup / spurious-wakeup
//     bug that surfaces as a rare hang, exactly the class of failure
//     a drain wait cannot debug after the fact.
//
// Signal and Broadcast carry no such constraints and are never
// flagged here (lockblock covers what locks are held around them).
type condwaitAnalyzer struct{}

func (condwaitAnalyzer) Name() string { return "condwait" }
func (condwaitAnalyzer) Doc() string {
	return "sync.Cond is built with NewCond and Wait is called inside a for loop"
}

func (condwaitAnalyzer) Check(pkg *Package, r *Reporter) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				// var c sync.Cond — zero value, nil Locker.
				if n.Type != nil && len(n.Values) == 0 && isCondValue(pkg, n.Type) {
					r.Reportf(n.Pos(), "zero-value sync.Cond (nil Locker panics on Wait); construct with sync.NewCond")
				}
			case *ast.StructType:
				for _, f := range n.Fields.List {
					if isCondValue(pkg, f.Type) {
						r.Reportf(f.Pos(), "sync.Cond struct field by value; use *sync.Cond set with sync.NewCond (a Cond must not be copied)")
					}
				}
			case *ast.CompositeLit:
				// sync.Cond{} or sync.Cond{L: mu}: even with L set, the
				// literal invites copying before first use.
				if tv, ok := pkg.Info.Types[n]; ok && isNamed(tv.Type, "sync", "Cond") {
					r.Reportf(n.Pos(), "sync.Cond composite literal; construct with sync.NewCond")
				}
			}
			return true
		})
		// The loop tracker walks the whole file separately: function
		// bodies are reached with inFor=false (a FuncDecl is not a loop),
		// so every Wait call is classified in one pass.
		checkWaitLoops(pkg, r, file, false)
	}
}

// isCondValue reports whether the type expression denotes sync.Cond by
// value (not *sync.Cond).
func isCondValue(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isNamed(tv.Type, "sync", "Cond")
}

// checkWaitLoops walks a function body tracking whether each statement
// sits inside a for loop; a (*sync.Cond).Wait call reached with inFor
// false is reported. Function literals reset the flag: a closure's
// body runs whenever the closure does, not under the enclosing loop.
func checkWaitLoops(pkg *Package, r *Reporter, body ast.Node, inFor bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				checkWaitLoops(pkg, r, n.Init, inFor)
			}
			if n.Cond != nil {
				checkWaitLoops(pkg, r, n.Cond, inFor)
			}
			if n.Post != nil {
				checkWaitLoops(pkg, r, n.Post, inFor)
			}
			checkWaitLoops(pkg, r, n.Body, true)
			return false
		case *ast.RangeStmt:
			checkWaitLoops(pkg, r, n.X, inFor)
			checkWaitLoops(pkg, r, n.Body, true)
			return false
		case *ast.FuncLit:
			checkWaitLoops(pkg, r, n.Body, false)
			return false
		case *ast.CallExpr:
			if !inFor && isCondMethod(pkg, n, "Wait") {
				r.Reportf(n.Pos(), "sync.Cond Wait outside a for loop; wakeups are hints, re-check the predicate in a loop")
			}
		}
		return true
	})
}

// isCondMethod reports whether call is (*sync.Cond).<name>(...).
func isCondMethod(pkg *Package, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedOrPtr(sig.Recv().Type(), "sync", "Cond")
}
