package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
	"repro/internal/lint/dataflow"
)

// CacheInval enforces invalidation completeness: a statement that mutates
// table.Table row storage (t.rows...) or the session constraint set
// (Session.dcs / Session.alg) must be post-dominated by a call into the
// cache invalidation surface — Table.logEdit, Table.logStructural (the
// row insert/delete barrier, which also records the typed entry structural
// replay decodes), Table.invalidateEdits, or Engine.InvalidateCache — so
// no return path can publish stale cache entries keyed on the pre-mutation
// generation.
//
// The check is flow-sensitive: the mutation's basic block and index are
// located in the function's CFG and cfg.EveryPathHits asks whether every
// path to the exit crosses an invalidation barrier. A call to a
// same-package helper that transitively invalidates (per the dataflow
// summaries) counts as a barrier; so does a deferred invalidation
// registered anywhere in the function, since defers run on every exit.
//
// Mutations inside closures are attributed to the statement that contains
// the closure — the approximation is conservative in the common shapes
// (the closure runs before the function returns) and the edit-log
// analyzer independently pins the write path itself.
//
// Session constraint-set mutations carry a second obligation: the
// session's compiled constraint-set plan is keyed on the DC set, so the
// mutation must also be post-dominated by a call into the plan refresh
// surface, Session.refreshPlan. Engine.InvalidateCache deliberately does
// not satisfy this barrier: it drops the engine's caches but leaves the
// session's compiled plan pointer stale.
var CacheInval = &analysis.Analyzer{
	Name: "cacheinval",
	Doc:  "reports table-storage and DC-set mutations not post-dominated by cache invalidation and plan refresh",
	Run:  runCacheInval,
}

func runCacheInval(pass *analysis.Pass) (any, error) {
	g := dataflow.Build(pass.Fset, pass.Files, pass.TypesInfo, pass.Pkg)
	for _, fn := range g.Funcs() {
		decl := g.DeclOf(fn)
		if isInvalidationDecl(pass, decl) {
			continue // the surface itself may write freely
		}
		checkCacheInval(pass, g, decl)
	}
	return nil, nil
}

// isInvalidationDecl reports whether decl IS part of the invalidation
// surface (logEdit / logStructural / invalidateEdits on Table): the
// mechanism cannot be required to invoke itself.
func isInvalidationDecl(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil {
		return false
	}
	switch decl.Name.Name {
	case "logEdit", "logStructural", "invalidateEdits":
		return isNamedType(pass.TypesInfo.TypeOf(decl.Recv.List[0].Type), "internal/table", "Table")
	}
	return false
}

func checkCacheInval(pass *analysis.Pass, g *dataflow.Graph, decl *ast.FuncDecl) {
	// Find mutation sites first; most functions have none and skip the
	// CFG build entirely.
	var sites []ast.Node
	descs := make(map[ast.Node]string)
	sessionCfg := make(map[ast.Node]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if desc, session, ok := mutationTarget(pass, lhs); ok {
				sites = append(sites, as)
				descs[as] = desc
				sessionCfg[as] = sessionCfg[as] || session
				break
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	barrier := func(n ast.Node) bool { return nodeInvalidates(pass, g, n) }
	planBarrier := func(n ast.Node) bool { return nodeRefreshesPlan(pass, g, n) }

	// A deferred invalidation runs on every exit path: if the function
	// registers one anywhere, each mutation is covered at return time.
	// The two barrier surfaces are tracked independently.
	deferred, deferredPlan := false, false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if nodeInvalidates(pass, g, d) {
				deferred = true
			}
			if nodeRefreshesPlan(pass, g, d) {
				deferredPlan = true
			}
		}
		return !(deferred && deferredPlan)
	})

	graph := cfg.New(decl.Body)
	// Locate each site's block and intra-block index. Mutations inside
	// closures surface as their enclosing block-level statement.
	covered := make(map[ast.Node]bool)
	for _, b := range graph.Blocks {
		for i, n := range b.Nodes {
			if descs[n] == "" || covered[n] {
				continue
			}
			covered[n] = true
			if !deferred && !graph.EveryPathHits(b, i, barrier) {
				pass.Reportf(n.Pos(),
					"%s is mutated but not every path to return passes cache invalidation afterwards; call Table.logEdit/invalidateEdits or Engine.InvalidateCache on every path (or //lint:allow cacheinval <reason>)",
					descs[n])
			}
			if sessionCfg[n] && !deferredPlan && !graph.EveryPathHits(b, i, planBarrier) {
				pass.Reportf(n.Pos(),
					"%s is mutated but not every path to return recompiles the constraint-set plan afterwards; call Session.refreshPlan on every path (or //lint:allow cacheinval <reason>)",
					descs[n])
			}
		}
	}
	// A site never placed in a block (inside a closure whose statement we
	// could not attribute) is checked conservatively at function level.
	for _, s := range sites {
		if covered[s] {
			continue
		}
		if !deferred && !funcHasBarrier(decl, barrier) {
			pass.Reportf(s.Pos(),
				"%s is mutated inside a nested function with no invalidation call in sight; invalidate after the mutation (or //lint:allow cacheinval <reason>)",
				descs[s])
		}
		if sessionCfg[s] && !deferredPlan && !funcHasBarrier(decl, planBarrier) {
			pass.Reportf(s.Pos(),
				"%s is mutated inside a nested function with no plan refresh in sight; call Session.refreshPlan after the mutation (or //lint:allow cacheinval <reason>)",
				descs[s])
		}
	}
}

// funcHasBarrier reports whether any node of the body satisfies barrier.
func funcHasBarrier(decl *ast.FuncDecl, barrier func(ast.Node) bool) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n != nil && barrier(n) {
			found = true
		}
		return !found
	})
	return found
}

// mutationTarget classifies an assignment LHS as a guarded mutation:
// writes into Table row storage or the Session constraint-set fields.
// session marks the latter class, which additionally owes a plan refresh.
func mutationTarget(pass *analysis.Pass, lhs ast.Expr) (desc string, session, ok bool) {
	base := lhs
	for {
		if idx, ok := ast.Unparen(base).(*ast.IndexExpr); ok {
			base = idx.X
			continue
		}
		break
	}
	sel, selOK := ast.Unparen(base).(*ast.SelectorExpr)
	if !selOK {
		return "", false, false
	}
	owner := pass.TypesInfo.TypeOf(sel.X)
	switch {
	case sel.Sel.Name == "rows" && isNamedType(owner, "internal/table", "Table"):
		return "table row storage (" + exprString(pass.Fset, lhs) + ")", false, true
	case (sel.Sel.Name == "dcs" || sel.Sel.Name == "alg") && isNamedType(owner, "internal/core", "Session"):
		return "the session repair configuration (" + exprString(pass.Fset, lhs) + ")", true, true
	}
	return "", false, false
}

// nodeInvalidates reports whether node n contains a call that reaches the
// invalidation surface: a direct call to Table.logEdit /
// Table.invalidateEdits / Engine.InvalidateCache, or a call to a
// same-package function that transitively invalidates.
//
// A *ast.RangeStmt head node syntactically contains its body, whose
// statements live in other blocks; only the head-resident parts (the
// range expression) are scanned for it.
func nodeInvalidates(pass *analysis.Pass, g *dataflow.Graph, n ast.Node) bool {
	if r, ok := n.(*ast.RangeStmt); ok {
		return r.X != nil && nodeInvalidates(pass, g, r.X)
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return !found
		}
		fn := calledFunc(pass, call)
		if fn == nil {
			return !found
		}
		if isInvalidationFunc(fn) || g.Invalidates(fn, dataflow.DefaultDepth) {
			found = true
		}
		return !found
	})
	return found
}

// isInvalidationFunc mirrors the dataflow package's invalidation surface
// for direct (possibly cross-package) callees.
func isInvalidationFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "logEdit", "logStructural", "invalidateEdits":
		return isNamedType(sig.Recv().Type(), "internal/table", "Table")
	case "InvalidateCache":
		return isNamedType(sig.Recv().Type(), "internal/exec", "Engine")
	}
	return false
}

// nodeRefreshesPlan is nodeInvalidates for the plan refresh surface:
// a direct call to Session.refreshPlan, or a call to a
// same-package function that transitively refreshes.
func nodeRefreshesPlan(pass *analysis.Pass, g *dataflow.Graph, n ast.Node) bool {
	if r, ok := n.(*ast.RangeStmt); ok {
		return r.X != nil && nodeRefreshesPlan(pass, g, r.X)
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return !found
		}
		fn := calledFunc(pass, call)
		if fn == nil {
			return !found
		}
		if isPlanRefreshFunc(fn) || g.RefreshesPlan(fn, dataflow.DefaultDepth) {
			found = true
		}
		return !found
	})
	return found
}

// isPlanRefreshFunc mirrors the dataflow package's plan refresh surface
// for direct (possibly cross-package) callees. Engine.InvalidateCache is
// deliberately absent: it drops the engine's caches but leaves the
// session's compiled plan pointer stale.
func isPlanRefreshFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && fn.Name() == "refreshPlan" &&
		isNamedType(sig.Recv().Type(), "internal/core", "Session")
}
