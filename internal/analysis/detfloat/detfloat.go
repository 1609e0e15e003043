// Package detfloat implements the determinism analyzer for floating-point
// accumulation over map iteration.
//
// Journal replay (internal/journal) must rebuild bit-identical trust
// matrices: the engine's incremental caches, the snapshot differ and the
// property tests all compare float64 values exactly. Go randomises map
// iteration order, and float addition is not associative, so a sum
// accumulated while ranging over a map can legally differ between two
// runs over the same data — exactly the silent reputation drift the
// determinism contract (DESIGN.md §8) forbids.
//
// detfloat flags assignments that accumulate a float value across the
// iterations of a `range` statement over a map, inside the packages
// listed in Packages. Accumulation into an element keyed by the range
// variable itself (next[j] += v inside `for j, v := range row`) is
// order-independent — each key owns its own accumulator — and is not
// flagged.
package detfloat

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"mdrep/internal/analysis/lintutil"
)

// Packages is the set of packages whose float arithmetic must not depend
// on map iteration order: the replay-deterministic core pipeline (core,
// sparse, journal, wire, eval), the peer daemon and its examiner (peer,
// security), whose R_f must equal the engine's bit for bit, and the
// packages whose figures and verdicts must reproduce run to run
// (experiments, chaos, massim, blue, walk, p2psim and the eigentrust,
// multitier and titfortat baselines).
var Packages = []string{"core", "sparse", "journal", "wire", "eval", "peer", "security", "experiments", "chaos", "massim", "blue", "walk", "p2psim", "eigentrust", "multitier", "titfortat"}

// name is the analyzer name, also the token accepted by //mdrep:allow.
const name = "detfloat"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag float accumulation over map iteration in replay-deterministic packages\n\n" +
		"Float addition is not associative and Go randomises map iteration, so a\n" +
		"sum accumulated while ranging over a map may differ bit-wise between two\n" +
		"runs on identical data, breaking bit-identical journal replay. Iterate\n" +
		"sorted keys instead (see sparse.sortedCols).",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.IsPackage(pass.Pkg.Path(), Packages...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		assign := n.(*ast.AssignStmt)
		for _, target := range accumTargets(pass, assign) {
			// Walk outward to the nearest enclosing range-over-map whose
			// iteration order the accumulator is sensitive to.
			for i := len(stack) - 2; i >= 0; i-- {
				rng, ok := stack[i].(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass, rng) {
					continue
				}
				if orderSensitive(pass, target, rng) {
					lintutil.Report(pass, assign.Pos(), name,
						"nondeterministic float accumulation into %s while ranging over a map; iterate sorted keys so journal replay stays bit-identical",
						types.ExprString(target))
				}
				break // verdict rendered against the nearest map range
			}
		}
		return true
	})
	return nil, nil
}

// accumTargets returns the left-hand sides through which assign
// accumulates a floating-point value: compound ops (+=, -=, *=, /=) and
// the explicit `x = x + ...` form.
func accumTargets(pass *analysis.Pass, assign *ast.AssignStmt) []ast.Expr {
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(assign.Lhs) == 1 && isFloat(pass, assign.Lhs[0]) {
			return assign.Lhs[:1]
		}
	case token.ASSIGN:
		if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || !isFloat(pass, assign.Lhs[0]) {
			return nil
		}
		// x = x + y / x = y + x / x = x - y: the LHS appears as a direct
		// additive operand of the RHS.
		bin, ok := assign.Rhs[0].(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil
		}
		lhs := types.ExprString(assign.Lhs[0])
		if types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs {
			return assign.Lhs[:1]
		}
	}
	return nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func rangesOverMap(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderSensitive reports whether accumulating into target inside rng
// depends on rng's iteration order: the accumulator lives outside the
// range statement (it survives across iterations) and, for indexed
// targets, the element is not keyed by the range variables (a per-key
// accumulator sees each key exactly once, so order cannot matter).
func orderSensitive(pass *analysis.Pass, target ast.Expr, rng *ast.RangeStmt) bool {
	if idx, ok := target.(*ast.IndexExpr); ok && mentionsRangeVars(pass, idx.Index, rng) {
		return false
	}
	root := lintutil.RootIdent(target)
	if root == nil {
		// Accumulation through a call result or other non-identifier base:
		// assume the storage outlives the loop.
		return true
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// mentionsRangeVars reports whether e references rng's key or value
// variable.
func mentionsRangeVars(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	vars := map[types.Object]bool{}
	for _, kv := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	if len(vars) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}
