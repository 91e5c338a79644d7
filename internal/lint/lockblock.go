package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockblockAnalyzer forbids blocking operations while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, select statements
// without a default clause (with one, a select is Go's non-blocking
// channel op and is allowed), ranging over a channel, time.Sleep, and
// transport Send/TrySend calls.
// The runtime's progress argument (asynchronous workers never wait on
// each other inside shared-state critical sections — the paper's §6
// no-global-barrier property) depends on critical sections being
// short and non-blocking; a channel op under a lock can deadlock the
// whole ring the first time the peer is slow, and no test schedule is
// guaranteed to exercise it.
//
// Tracking is intra-function and textual: mu.Lock()/mu.RLock() pushes
// the receiver expression onto the held set, the matching Unlock pops
// it, and `defer mu.Unlock()` leaves it held for the remainder of the
// function (which is exactly the scope in which blocking is unsafe).
// Branch bodies are analyzed with a copy of the held set, so a lock
// acquired and released inside one branch never leaks into siblings.
// Function literals start with an empty held set — they run on their
// own goroutine or at defer time, not under the caller's locks at this
// textual point.
//
// Two checks ride on the same held set:
//
//   - Re-acquiring a key already held (mu.Lock under mu.Lock, or any
//     RLock/Lock mix on one key) is a self-deadlock — sync mutexes are
//     not reentrant, and recursive RLock deadlocks the moment a writer
//     queues between the two acquisitions.
//   - sync.Cond Wait (the session's Close drain wait) must run
//     with exactly one lock held: zero means its Locker is unlocked
//     and Wait panics; more than one means Wait releases only its own
//     locker and sleeps with the rest held — a blocking op under a
//     lock, same as a channel receive. Signal and Broadcast never
//     block and are never flagged.
type lockblockAnalyzer struct{}

func (lockblockAnalyzer) Name() string { return "lockblock" }
func (lockblockAnalyzer) Doc() string {
	return "no blocking op or lock re-acquisition while a sync mutex is held; Cond.Wait holds exactly its locker"
}

// heldLock is one mutex currently held, keyed by the receiver
// expression's printed form (types.ExprString), so d.mu and peer.mu
// stay distinct.
type heldLock struct {
	key  string // receiver expression, e.g. "w.mu"
	read bool   // RLock rather than Lock
	pos  token.Pos
}

type lockblockChecker struct {
	pkg *Package
	r   *Reporter
}

func (lockblockAnalyzer) Check(pkg *Package, r *Reporter) {
	c := &lockblockChecker{pkg: pkg, r: r}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				c.stmts(fd.Body.List, nil)
			}
			// FuncLits are entered from the statement walker with an
			// empty held set; don't double-visit them here.
			_, isLit := n.(*ast.FuncLit)
			return !isLit
		})
	}
	// Top-level FuncLits outside any FuncDecl (package var initializers).
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					c.stmts(fl.Body.List, nil)
					return false
				}
				return true
			})
		}
	}
}

// stmts walks a statement list in textual order, threading the held set
// through, and returns the set as of the end of the list.
func (c *lockblockChecker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = c.stmt(s, held)
	}
	return held
}

func (c *lockblockChecker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		return c.stmts(s.List, held)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held)
	case *ast.ExprStmt:
		c.scanExpr(s.X, held)
		return c.lockOps(s.X, held)
	case *ast.SendStmt:
		c.flagIfHeld(s.Arrow, held, "channel send")
		c.scanExpr(s.Chan, held)
		c.scanExpr(s.Value, held)
		return held
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scanExpr(e, held)
			held = c.lockOps(e, held)
		}
		for _, e := range s.Lhs {
			c.scanExpr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(v, held)
					}
				}
			}
		}
		return held
	case *ast.IncDecStmt:
		c.scanExpr(s.X, held)
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(e, held)
		}
		return held
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held for the rest of the
		// function — the held set is deliberately not popped, because
		// every later statement still runs under the lock. Other
		// deferred calls only evaluate their arguments now.
		if c.isUnlock(s.Call) {
			return held
		}
		for _, a := range s.Call.Args {
			c.scanExpr(a, held)
		}
		c.enterFuncLits(s.Call.Fun)
		return held
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.scanExpr(a, held)
		}
		c.enterFuncLits(s.Call.Fun)
		return held
	case *ast.IfStmt:
		held = c.stmt(s.Init, held)
		c.scanExpr(s.Cond, held)
		c.stmts(s.Body.List, cloneHeld(held))
		c.stmt(s.Else, cloneHeld(held))
		return held
	case *ast.ForStmt:
		held = c.stmt(s.Init, held)
		c.scanExpr(s.Cond, held)
		body := cloneHeld(held)
		body = c.stmt(s.Post, body)
		c.stmts(s.Body.List, body)
		return held
	case *ast.RangeStmt:
		if t := c.exprType(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				c.flagIfHeld(s.Range, held, "range over channel")
			}
		}
		c.scanExpr(s.X, held)
		c.stmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.SwitchStmt:
		held = c.stmt(s.Init, held)
		c.scanExpr(s.Tag, held)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				for _, e := range clause.List {
					c.scanExpr(e, held)
				}
				c.stmts(clause.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = c.stmt(s.Init, held)
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.stmts(clause.Body, cloneHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		// A select with a default clause never blocks — it is Go's
		// spelling of a non-blocking channel op (the transport's locked
		// trySend relies on exactly this: the lock is what fences the
		// channel against a concurrent close). Only a default-less
		// select can park the goroutine with the lock held.
		hasDefault := false
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.flagIfHeld(s.Select, held, "select")
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				c.stmts(clause.Body, cloneHeld(held))
			}
		}
		return held
	}
	return held
}

// scanExpr flags blocking operations inside one expression: channel
// receives, time.Sleep, and transport Send/TrySend. FuncLit bodies are
// analyzed as fresh functions with nothing held.
func (c *lockblockChecker) scanExpr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmts(n.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.flagIfHeld(n.OpPos, held, "channel receive")
			}
		case *ast.CallExpr:
			fn := calleeFunc(c.pkg, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
				c.flagIfHeld(n.Pos(), held, "time.Sleep")
			case fn.Pkg().Path() == transportPath &&
				(fn.Name() == "Send" || fn.Name() == "TrySend") &&
				fn.Type().(*types.Signature).Recv() != nil:
				c.flagIfHeld(n.Pos(), held, "transport "+fn.Name())
			case isCondMethod(c.pkg, n, "Wait"):
				c.checkCondWait(n, held)
			}
		}
		return true
	})
}

// enterFuncLits visits function literals in a go/defer callee with an
// empty held set.
func (c *lockblockChecker) enterFuncLits(fun ast.Expr) {
	ast.Inspect(fun, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, nil)
			return false
		}
		return true
	})
}

// lockOps interprets Lock/RLock/Unlock/RUnlock calls in an expression
// evaluated as a statement, returning the updated held set.
func (c *lockblockChecker) lockOps(e ast.Expr, held []heldLock) []heldLock {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return held
	}
	name, key, ok := c.mutexCall(call)
	if !ok {
		return held
	}
	switch name {
	case "Lock", "RLock":
		// Re-acquiring a held key is a self-deadlock: sync mutexes are
		// not reentrant, and recursive RLock deadlocks as soon as a
		// writer queues between the acquisitions (sync's documented
		// prohibition).
		for _, h := range held {
			if h.key == key {
				c.r.Reportf(call.Pos(), "%s of %s while already held (locked at line %d); sync locks are not reentrant",
					name, key, c.pkg.Fset.Position(h.pos).Line)
				break
			}
		}
		return append(held, heldLock{key: key, read: name == "RLock", pos: call.Pos()})
	case "Unlock", "RUnlock":
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key && held[i].read == (name == "RUnlock") {
				return append(append([]heldLock{}, held[:i]...), held[i+1:]...)
			}
		}
	}
	return held
}

// isUnlock reports whether call is mu.Unlock() or mu.RUnlock().
func (c *lockblockChecker) isUnlock(call *ast.CallExpr) bool {
	name, _, ok := c.mutexCall(call)
	return ok && (name == "Unlock" || name == "RUnlock")
}

// mutexCall matches a call to one of sync.(RW)Mutex's methods
// (including through embedding) and returns the method name plus the
// receiver expression's printed form as the held-set key.
func (c *lockblockChecker) mutexCall(call *ast.CallExpr) (name, key string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := c.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", false
	}
	return fn.Name(), types.ExprString(sel.X), true
}

// checkCondWait enforces the Cond.Wait held-set contract: Wait
// atomically unlocks its Locker, sleeps, and re-locks — so exactly one
// lock (assumed to be that Locker) must be held at the call. Zero held
// means the Locker is unlocked and Wait panics; two or more means the
// extra locks stay held across the sleep, which is the same progress
// hazard as any other blocking op under a lock.
func (c *lockblockChecker) checkCondWait(call *ast.CallExpr, held []heldLock) {
	switch {
	case len(held) == 0:
		c.r.Reportf(call.Pos(), "sync.Cond Wait with no lock held; lock the Cond's Locker first (Wait unlocks it)")
	case len(held) > 1:
		h := held[0]
		c.r.Reportf(call.Pos(), "sync.Cond Wait while %d locks are held (%s locked at line %d); Wait releases only the Cond's own locker",
			len(held), h.key, c.pkg.Fset.Position(h.pos).Line)
	}
}

// flagIfHeld reports a blocking operation when any mutex is held.
func (c *lockblockChecker) flagIfHeld(pos token.Pos, held []heldLock, what string) {
	if len(held) == 0 {
		return
	}
	h := held[len(held)-1]
	c.r.Reportf(pos, "%s while %s is held (locked at line %d); release the lock before blocking",
		what, h.key, c.pkg.Fset.Position(h.pos).Line)
}

func (c *lockblockChecker) exprType(e ast.Expr) types.Type {
	if tv, ok := c.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock{}, held...)
}
