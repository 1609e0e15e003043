// Package locksafe guards the two locking conventions of the concurrent
// reputation engine.
//
// Re-entrancy (all packages): every mutex-guarded facade in the tree
// (peer.Peer, dht.Storage, journal shards, ...) wraps its state in a
// sync.Mutex/RWMutex field named mu. Go mutexes are not
// re-entrant: a method that holds c.mu for its whole body (the
// `c.mu.Lock(); defer c.mu.Unlock()` idiom) and then calls another method
// of the same receiver that acquires c.mu deadlocks itself — or, for
// RLock→RLock, deadlocks as soon as a writer is queued between the two
// acquisitions. The analyzer computes, per receiver type, which methods
// (transitively) acquire mu, and flags same-receiver calls to them made
// while the caller still holds the lock.
//
// Shard lock ordering (all packages): the sharded engine's deadlock
// freedom rests on one rule — when a function holds more than one shard
// data lock (any acquisition of shards[i].mu, directly or through a
// `sh := &x.shards[i]` alias), it must take them in ascending shard
// index. The analyzer flags the two static shapes that violate it: a
// loop that walks the shard slice downwards while locking, and a pair of
// constant-index acquisitions in descending order with no release in
// between. Ascending lockAll loops and single-shard critical sections
// are untouched.
package locksafe

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"mdrep/internal/analysis/lintutil"
)

// name is the analyzer name, also the token accepted by //mdrep:allow.
const name = "locksafe"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag re-entrant mutex acquisition and shard lock-order violations\n\n" +
		"A method holding its receiver's mu (Lock-then-defer-Unlock idiom) must\n" +
		"not call another method of the same receiver that acquires mu: Go\n" +
		"mutexes are not re-entrant. Functions that take multiple shards[i].mu\n" +
		"locks must take them in ascending shard index, or two shard workers\n" +
		"deadlock against each other.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	checkReentrancy(pass, ins)
	checkShardOrder(pass, ins)
	return nil, nil
}

// --- re-entrant acquisition -------------------------------------------------

// selfCall is a call to a method of the enclosing method's own receiver.
type selfCall struct {
	name string
	pos  token.Pos
}

// methodFacts summarises one method's interaction with its receiver's mu.
type methodFacts struct {
	locksMu bool // contains recv.mu.Lock() or recv.mu.RLock()
	// heldFrom is the position of the first Lock/RLock appearing as a
	// top-level statement of a method body that also defers the matching
	// unlock — the `mu.Lock(); defer mu.Unlock()` idiom, where the lock is
	// held from here to every return. Locks nested inside branches (e.g.
	// per-case locking in an event-dispatch switch) do not cover the
	// sibling branches, so they never establish heldFrom.
	heldFrom token.Pos
	// released are positions of explicit (non-deferred) Unlock/RUnlock
	// calls; a self-call after one of these is not made under the lock.
	released  []token.Pos
	selfCalls []selfCall
}

func checkReentrancy(pass *analysis.Pass, ins *inspector.Inspector) {
	// facts[T][method] for every method whose receiver type T has a
	// sync.Mutex or sync.RWMutex field named mu.
	facts := map[*types.Named]map[string]*methodFacts{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		named, recv := mutexGuardedReceiver(pass, decl)
		if named == nil {
			return
		}
		if facts[named] == nil {
			facts[named] = map[string]*methodFacts{}
		}
		facts[named][decl.Name.Name] = collectFacts(pass, decl, named, recv)
	})

	for named, methods := range facts {
		acquires := transitiveAcquirers(methods)
		for method, f := range methods {
			if f.heldFrom == token.NoPos {
				continue
			}
			for _, call := range f.selfCalls {
				if call.pos < f.heldFrom || !acquires[call.name] {
					continue
				}
				if releasedBefore(f, call.pos) {
					continue
				}
				lintutil.Report(pass, call.pos, name,
					"%s.%s calls %s while holding mu (held from the Lock/defer-Unlock above); %s acquires mu and Go mutexes are not re-entrant — self-deadlock",
					named.Obj().Name(), method, call.name, call.name)
			}
		}
	}
}

// mutexGuardedReceiver returns the receiver's named struct type and
// receiver variable when decl is a method on a struct with a
// sync.Mutex/sync.RWMutex field named mu.
func mutexGuardedReceiver(pass *analysis.Pass, decl *ast.FuncDecl) (*types.Named, *types.Var) {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || decl.Body == nil {
		return nil, nil
	}
	field := decl.Recv.List[0]
	if len(field.Names) != 1 || field.Names[0].Name == "_" {
		return nil, nil
	}
	recv, ok := pass.TypesInfo.ObjectOf(field.Names[0]).(*types.Var)
	if !ok {
		return nil, nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if fld.Name() != "mu" {
			continue
		}
		if tn, ok := fld.Type().(*types.Named); ok {
			obj := tn.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
				(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
				return named, recv
			}
		}
	}
	return nil, nil
}

// collectFacts scans one method body for mu operations on recv and calls
// to other methods of the same receiver.
func collectFacts(pass *analysis.Pass, decl *ast.FuncDecl, named *types.Named, recv *types.Var) *methodFacts {
	f := &methodFacts{}
	deferredUnlock := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if op, onRecv := muOp(pass, d.Call, recv); onRecv {
				if op == "Unlock" || op == "RUnlock" {
					deferredUnlock = true
				}
				// Skip the children: the deferred mu call must not also be
				// recorded as an explicit (pre-return) release below.
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, onRecv := muOp(pass, call, recv); onRecv {
			switch op {
			case "Lock", "RLock":
				f.locksMu = true
			case "Unlock", "RUnlock":
				f.released = append(f.released, call.Pos())
			}
			return true
		}
		if name, ok := sameReceiverCall(pass, call, named, recv); ok {
			f.selfCalls = append(f.selfCalls, selfCall{name: name, pos: call.Pos()})
		}
		return true
	})
	// heldFrom only when the lock is a top-level statement of the body: a
	// lock inside one branch of a switch/if does not cover its siblings.
	if deferredUnlock {
		for _, stmt := range decl.Body.List {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if op, onRecv := muOp(pass, call, recv); onRecv && (op == "Lock" || op == "RLock") {
				f.heldFrom = call.Pos()
				break
			}
		}
	}
	return f
}

// muOp matches recv.mu.<op>() and returns the operation name.
func muOp(pass *analysis.Pass, call *ast.CallExpr, recv *types.Var) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "mu" {
		return "", false
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(base) != types.Object(recv) {
		return "", false
	}
	return sel.Sel.Name, true
}

// sameReceiverCall matches recv.Method(...) where Method is defined on the
// same named type.
func sameReceiverCall(pass *analysis.Pass, call *ast.CallExpr, named *types.Named, recv *types.Var) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(base) != types.Object(recv) {
		return "", false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if t != types.Type(named) {
		return "", false
	}
	return fn.Name(), true
}

// transitiveAcquirers closes the "acquires mu" property over same-receiver
// calls: SetImplicit → ApplyEvent → Lock means SetImplicit acquires.
func transitiveAcquirers(methods map[string]*methodFacts) map[string]bool {
	acquires := map[string]bool{}
	for name, f := range methods {
		if f.locksMu {
			acquires[name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for name, f := range methods {
			if acquires[name] {
				continue
			}
			for _, call := range f.selfCalls {
				if acquires[call.name] {
					acquires[name] = true
					changed = true
					break
				}
			}
		}
	}
	return acquires
}

// releasedBefore reports whether an explicit unlock sits between the lock
// acquisition and pos (linear position approximation, not a CFG).
func releasedBefore(f *methodFacts, pos token.Pos) bool {
	for _, rel := range f.released {
		if f.heldFrom < rel && rel < pos {
			return true
		}
	}
	return false
}

// --- shard lock ordering ----------------------------------------------------

// shardLockEvent is one Lock/Unlock of shards[idx].mu inside a function
// body, in source order.
type shardLockEvent struct {
	op  string   // "Lock" or "Unlock"
	idx ast.Expr // the shard index expression
	pos token.Pos
}

// checkShardOrder enforces the ascending-shard-index convention on the
// shard data locks. Two shapes are flagged: a loop that decrements its
// variable while locking shards[var].mu in its body, and a pair of
// constant-index acquisitions in descending order with no intervening
// release of the earlier lock.
func checkShardOrder(pass *analysis.Pass, ins *inspector.Inspector) {
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return
		}
		events := collectShardLockEvents(pass, body)
		reportDescendingConstPairs(pass, events)
	})
	ins.Preorder([]ast.Node{(*ast.ForStmt)(nil)}, func(n ast.Node) {
		checkDescendingLoop(pass, n.(*ast.ForStmt))
	})
}

// collectShardLockEvents walks body in source order, resolving
// `sh := &x.shards[i]` aliases, and returns every shards[i].mu.Lock and
// .Unlock it can see. Nested function literals are skipped — they run on
// their own goroutines with their own ordering obligations.
func collectShardLockEvents(pass *analysis.Pass, body *ast.BlockStmt) []shardLockEvent {
	aliases := map[types.Object]ast.Expr{} // local var -> shard index expr
	var events []shardLockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			recordShardAliases(pass, n, aliases)
		case *ast.DeferStmt:
			// A deferred unlock releases at return, after every later
			// acquisition — it must not clear the held set mid-body.
			return false
		case *ast.CallExpr:
			if op, idx := shardMuOp(pass, n, aliases); idx != nil {
				events = append(events, shardLockEvent{op: op, idx: idx, pos: n.Pos()})
			}
		}
		return true
	})
	return events
}

// recordShardAliases tracks `sh := &x.shards[i]` and `sh := x.shards[i]`.
func recordShardAliases(pass *analysis.Pass, as *ast.AssignStmt, aliases map[types.Object]ast.Expr) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for k, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		rhs := as.Rhs[k]
		if un, ok := rhs.(*ast.UnaryExpr); ok && un.Op == token.AND {
			rhs = un.X
		}
		if idx := shardIndexExpr(rhs); idx != nil {
			aliases[obj] = idx
		}
	}
}

// shardIndexExpr matches `<any>.shards[i]` and returns i.
func shardIndexExpr(e ast.Expr) ast.Expr {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "shards" {
		return nil
	}
	return ix.Index
}

// shardMuOp matches `<shards[i] or alias>.mu.Lock/Unlock()` and returns
// the operation and shard index expression.
func shardMuOp(pass *analysis.Pass, call *ast.CallExpr, aliases map[types.Object]ast.Expr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "Unlock" {
		return "", nil
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return "", nil
	}
	if idx := shardIndexExpr(mu.X); idx != nil {
		return op, idx
	}
	if id, ok := mu.X.(*ast.Ident); ok {
		if idx, ok := aliases[pass.TypesInfo.ObjectOf(id)]; ok {
			return op, idx
		}
	}
	return "", nil
}

// constShardIndex resolves idx to a compile-time integer, if it is one.
func constShardIndex(pass *analysis.Pass, idx ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[idx]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// reportDescendingConstPairs flags a constant-index acquisition made
// while a higher-indexed shard lock is still held.
func reportDescendingConstPairs(pass *analysis.Pass, events []shardLockEvent) {
	type held struct {
		v      int64
		active bool
	}
	var stack []held
	for _, ev := range events {
		v, ok := constShardIndex(pass, ev.idx)
		if !ok {
			continue
		}
		if ev.op == "Unlock" {
			for k := len(stack) - 1; k >= 0; k-- {
				if stack[k].active && stack[k].v == v {
					stack[k].active = false
					break
				}
			}
			continue
		}
		for _, h := range stack {
			if h.active && h.v > v {
				lintutil.Report(pass, ev.pos, name,
					"shards[%d].mu acquired while shards[%d].mu is held: shard data locks must be taken in ascending shard index or concurrent holders deadlock",
					v, h.v)
				break
			}
		}
		stack = append(stack, held{v: v, active: true})
	}
}

// checkDescendingLoop flags `for i := hi; ...; i--` loops that lock
// shards[i].mu in the body: successive iterations acquire in descending
// index while earlier iterations' locks are typically still held (the
// lockAll shape), inverting the ordering convention.
func checkDescendingLoop(pass *analysis.Pass, loop *ast.ForStmt) {
	loopVar := descendingLoopVar(pass, loop)
	if loopVar == nil || loop.Body == nil {
		return
	}
	aliases := map[types.Object]ast.Expr{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			recordShardAliases(pass, n, aliases)
		case *ast.CallExpr:
			op, idx := shardMuOp(pass, n, aliases)
			if op != "Lock" || idx == nil {
				return true
			}
			if root := lintutil.RootIdent(idx); root != nil && pass.TypesInfo.ObjectOf(root) == loopVar {
				lintutil.Report(pass, n.Pos(), name,
					"shards[%s].mu locked inside a descending loop over %s: shard data locks must be taken in ascending shard index or concurrent holders deadlock",
					root.Name, root.Name)
			}
		}
		return true
	})
}

// descendingLoopVar returns the loop variable object when loop's post
// statement decrements it (i-- or i -= n).
func descendingLoopVar(pass *analysis.Pass, loop *ast.ForStmt) types.Object {
	var id *ast.Ident
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok != token.DEC {
			return nil
		}
		id, _ = post.X.(*ast.Ident)
	case *ast.AssignStmt:
		if post.Tok != token.SUB_ASSIGN || len(post.Lhs) != 1 {
			return nil
		}
		id, _ = post.Lhs[0].(*ast.Ident)
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}
