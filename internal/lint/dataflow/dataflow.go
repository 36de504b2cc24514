// Package dataflow is the bounded call-graph summarizer under the
// flow-sensitive trexlint analyzers: it builds static call edges from
// go/types information for one type-checked package and memoizes a
// per-function Summary of the three fact families the analyzers consume —
//
//   - allocates: the body contains an allocation site (make, new, &T{},
//     slice/map literal, or a closure literal);
//   - acquires/releases: which mutexes the body locks and unlocks, as
//     stable (package.Type.field) labels;
//   - mutates/invalidates: whether the body writes table storage or the
//     session constraint set, and whether it calls into the cache
//     invalidation surface (Table.logEdit / Table.invalidateEdits /
//     Engine.InvalidateCache).
//
// Summaries are intraprocedural facts; the Transitive* queries propagate
// them over static call edges to a bounded depth. Edges resolve only
// callees whose bodies are in the analyzed package — cross-package calls
// are recorded but dead-end (trexlint analyzes each package against the
// invariants its own code must uphold; entry points of other packages are
// rooted and checked in their own package's run). Calls through function
// values and interface methods are unresolved for the same reason:
// summaries stay sound for the static call structure, and the runtime
// suites remain the backstop for dynamic dispatch.
//
// Closure bodies (*ast.FuncLit) are attributed to their enclosing
// declaration: a lock acquired or a context polled inside a closure
// counts as the declaring function's behavior, matching how the hot
// paths use closures (deferred cleanups, pooled constructors, worker
// bodies).
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DefaultDepth bounds every transitive query: deep enough for the
// repository's call chains (the eval→repair path is < 10 frames per
// package), small enough that accidental recursion cannot blow up.
const DefaultDepth = 32

// Acquire is one direct mutex acquisition site.
type Acquire struct {
	// Label identifies the mutex as package.Type.field (for struct
	// fields), package.var (package-level mutexes) or local:name
	// (function-local mutexes).
	Label string
	// Pos is the Lock/RLock call site.
	Pos token.Pos
	// Read distinguishes RLock from Lock.
	Read bool
}

// Summary carries one function's direct (intraprocedural) facts.
type Summary struct {
	// Allocates reports an allocation site anywhere in the body.
	Allocates bool
	// Acquires and Releases are the body's mutex operations in source
	// order (closures included); a Release's Read field marks RUnlock.
	Acquires []Acquire
	Releases []Acquire
	// MutatesTable reports a direct write into table.Table row storage;
	// MutatesDCSet a direct write to a core.Session constraint-set field.
	MutatesTable bool
	MutatesDCSet bool
	// Invalidates reports a direct call into the invalidation surface.
	Invalidates bool
	// RefreshesPlan reports a direct call into the constraint-set plan
	// refresh surface (Session.refreshPlan).
	RefreshesPlan bool
	// PollsCtx reports that the body consults a context.Context — calls
	// Err/Done/Deadline/Value on one, or passes one onward to a callee.
	PollsCtx bool
	// Calls lists the statically resolved callees in source order,
	// deduplicated.
	Calls []*types.Func
}

// Graph is the call graph plus summary store of one package.
type Graph struct {
	Fset *token.FileSet
	Info *types.Info
	Pkg  *types.Package

	decls     map[*types.Func]*ast.FuncDecl
	declOrder []*types.Func
	summaries map[*types.Func]*Summary
}

// Build scans the package's files and constructs the call graph. All
// facts are computed eagerly per function (one AST walk each); transitive
// queries memoize on top.
func Build(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package) *Graph {
	g := &Graph{
		Fset:      fset,
		Info:      info,
		Pkg:       pkg,
		decls:     make(map[*types.Func]*ast.FuncDecl),
		summaries: make(map[*types.Func]*Summary),
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			g.declOrder = append(g.declOrder, fn)
		}
	}
	for _, fn := range g.declOrder {
		g.summaries[fn] = g.summarize(g.decls[fn])
	}
	return g
}

// Funcs returns the package's declared functions in source order.
func (g *Graph) Funcs() []*types.Func { return g.declOrder }

// DeclOf returns the declaration of fn, nil when fn has no body in this
// package.
func (g *Graph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// SummaryOf returns fn's direct summary, nil for functions without a
// body in this package.
func (g *Graph) SummaryOf(fn *types.Func) *Summary { return g.summaries[fn] }

// summarize computes the direct facts of one declaration.
func (g *Graph) summarize(fd *ast.FuncDecl) *Summary {
	s := &Summary{}
	seenCall := make(map[*types.Func]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			g.summarizeCall(s, seenCall, n)
		case *ast.FuncLit:
			s.Allocates = true
		case *ast.CompositeLit:
			s.Allocates = true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				s.Allocates = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				g.summarizeWrite(s, lhs)
			}
		}
		return true
	})
	return s
}

// summarizeCall classifies one call expression into the summary.
func (g *Graph) summarizeCall(s *Summary, seen map[*types.Func]bool, call *ast.CallExpr) {
	// Builtin allocators.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := g.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" || b.Name() == "new" {
				s.Allocates = true
			}
			return
		}
	}
	fn := g.calledFunc(call)
	if fn == nil {
		// A call through a function value still forwards a context if one
		// is among the arguments.
		if g.passesCtx(call) {
			s.PollsCtx = true
		}
		return
	}
	switch {
	case isMutexMethod(fn, "Lock"), isMutexMethod(fn, "RLock"):
		if label, ok := g.lockLabel(call); ok {
			s.Acquires = append(s.Acquires, Acquire{Label: label, Pos: call.Pos(), Read: fn.Name() == "RLock"})
		}
		return
	case isMutexMethod(fn, "Unlock"), isMutexMethod(fn, "RUnlock"):
		if label, ok := g.lockLabel(call); ok {
			s.Releases = append(s.Releases, Acquire{Label: label, Pos: call.Pos(), Read: fn.Name() == "RUnlock"})
		}
		return
	}
	if isCtxMethod(fn) {
		s.PollsCtx = true
	}
	if g.passesCtx(call) {
		s.PollsCtx = true
	}
	if isInvalidationEntry(fn) {
		s.Invalidates = true
	}
	if isPlanRefreshEntry(fn) {
		s.RefreshesPlan = true
	}
	if !seen[fn] {
		seen[fn] = true
		s.Calls = append(s.Calls, fn)
	}
}

// summarizeWrite classifies one assignment LHS.
func (g *Graph) summarizeWrite(s *Summary, lhs ast.Expr) {
	base := lhs
	for {
		if idx, ok := ast.Unparen(base).(*ast.IndexExpr); ok {
			base = idx.X
			continue
		}
		break
	}
	sel, ok := ast.Unparen(base).(*ast.SelectorExpr)
	if !ok {
		return
	}
	owner := g.Info.TypeOf(sel.X)
	switch {
	case sel.Sel.Name == "rows" && isNamed(owner, "internal/table", "Table"):
		// Indexed writes into row storage (t.rows[i][j] = v, t.rows[i] =
		// row) and structural re-slicing (t.rows = ...) alike.
		s.MutatesTable = true
	case (sel.Sel.Name == "dcs" || sel.Sel.Name == "alg") && isNamed(owner, "internal/core", "Session"):
		s.MutatesDCSet = true
	}
}

// isNamed reports whether t (through pointers and aliases) is the named
// type pkgSuffix.name.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == name && n.Obj().Pkg() != nil &&
		pathHasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// calledFunc resolves the static callee of a call, nil for builtins,
// conversions and dynamic calls.
func (g *Graph) calledFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := g.Info.Uses[id].(*types.Func)
	return fn
}

// passesCtx reports whether any argument of call has context.Context type.
func (g *Graph) passesCtx(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(g.Info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// lockLabel derives the stable label of the mutex a Lock/Unlock call
// operates on: the receiver expression with field owners resolved to
// their named types.
func (g *Graph) lockLabel(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return g.labelExpr(sel.X)
}

// labelExpr renders the mutex-valued expression as a label.
func (g *Graph) labelExpr(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := g.Info.ObjectOf(e)
		if obj == nil {
			return "", false
		}
		if obj.Parent() == g.Pkg.Scope() {
			return g.Pkg.Name() + "." + e.Name, true
		}
		return "local:" + e.Name, true
	case *ast.SelectorExpr:
		// field access: label by the owning named type when it has one,
		// recursing outward through anonymous owners.
		if owner := namedOf(g.Info.TypeOf(e.X)); owner != nil {
			pkgName := g.Pkg.Name()
			if p := owner.Obj().Pkg(); p != nil {
				pkgName = p.Name()
			}
			return pkgName + "." + owner.Obj().Name() + "." + e.Sel.Name, true
		}
		if outer, ok := g.labelExpr(e.X); ok {
			return outer + "." + e.Sel.Name, true
		}
		return "", false
	case *ast.IndexExpr:
		// shard arrays: c.shards[i].mu labels by the element's owner type,
		// which the SelectorExpr case above already resolves; a direct
		// index of a mutex array labels by the array expression.
		return g.labelExpr(e.X)
	default:
		return "", false
	}
}

// Reachable returns the set of declared functions reachable from roots
// over static call edges within maxDepth calls (roots are at depth 0 and
// always included when declared in the package).
func (g *Graph) Reachable(roots []*types.Func, maxDepth int) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	type item struct {
		fn    *types.Func
		depth int
	}
	var queue []item
	for _, r := range roots {
		if g.decls[r] != nil && !reach[r] {
			reach[r] = true
			queue = append(queue, item{r, 0})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.depth >= maxDepth {
			continue
		}
		for _, callee := range g.summaries[it.fn].Calls {
			if g.decls[callee] != nil && !reach[callee] {
				reach[callee] = true
				queue = append(queue, item{callee, it.depth + 1})
			}
		}
	}
	return reach
}

// TransitiveAcquires returns the sorted set of mutex labels fn may
// acquire, directly or through same-package callees within maxDepth.
func (g *Graph) TransitiveAcquires(fn *types.Func, maxDepth int) []string {
	set := make(map[string]bool)
	g.collectAcquires(fn, maxDepth, set, make(map[*types.Func]bool))
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (g *Graph) collectAcquires(fn *types.Func, depth int, set map[string]bool, visiting map[*types.Func]bool) {
	s := g.summaries[fn]
	if s == nil || visiting[fn] {
		return
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	for _, a := range s.Acquires {
		set[a.Label] = true
	}
	if depth <= 0 {
		return
	}
	for _, callee := range s.Calls {
		g.collectAcquires(callee, depth-1, set, visiting)
	}
}

// boolFact propagates a direct boolean fact over call edges.
func (g *Graph) boolFact(fn *types.Func, depth int, direct func(*Summary) bool, visiting map[*types.Func]bool) bool {
	s := g.summaries[fn]
	if s == nil || visiting[fn] {
		return false
	}
	if direct(s) {
		return true
	}
	if depth <= 0 {
		return false
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	for _, callee := range s.Calls {
		if g.boolFact(callee, depth-1, direct, visiting) {
			return true
		}
	}
	return false
}

// Mutates reports whether fn may write table storage or the session
// constraint set, directly or through same-package callees.
func (g *Graph) Mutates(fn *types.Func, maxDepth int) bool {
	return g.boolFact(fn, maxDepth, func(s *Summary) bool { return s.MutatesTable || s.MutatesDCSet }, make(map[*types.Func]bool))
}

// Invalidates reports whether fn may call into the invalidation surface,
// directly or through same-package callees.
func (g *Graph) Invalidates(fn *types.Func, maxDepth int) bool {
	return g.boolFact(fn, maxDepth, func(s *Summary) bool { return s.Invalidates }, make(map[*types.Func]bool))
}

// RefreshesPlan reports whether fn may call into the plan refresh
// surface, directly or through same-package callees.
func (g *Graph) RefreshesPlan(fn *types.Func, maxDepth int) bool {
	return g.boolFact(fn, maxDepth, func(s *Summary) bool { return s.RefreshesPlan }, make(map[*types.Func]bool))
}

// PollsCtx reports whether fn may consult a context, directly or through
// same-package callees.
func (g *Graph) PollsCtx(fn *types.Func, maxDepth int) bool {
	return g.boolFact(fn, maxDepth, func(s *Summary) bool { return s.PollsCtx }, make(map[*types.Func]bool))
}

// isMutexMethod reports whether fn is (*sync.Mutex or *sync.RWMutex).name.
func isMutexMethod(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isCtxMethod reports whether fn is one of context.Context's methods.
func isCtxMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Err", "Done", "Deadline", "Value":
		return isContextType(sig.Recv().Type())
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isInvalidationEntry reports whether fn is part of the cache
// invalidation surface: the table edit log's internal entry points or
// the engine-level descriptor invalidation.
func isInvalidationEntry(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return false
	}
	path, owner := recv.Obj().Pkg().Path(), recv.Obj().Name()
	switch fn.Name() {
	case "logEdit", "logStructural", "invalidateEdits":
		return owner == "Table" && pathHasSuffix(path, "internal/table")
	case "InvalidateCache":
		return owner == "Engine" && pathHasSuffix(path, "internal/exec")
	}
	return false
}

// isPlanRefreshEntry reports whether fn is the constraint-set plan
// refresh surface: the session-level recompilation. Deliberately narrower
// than the cache invalidation surface — Engine.InvalidateCache clears the
// caches but leaves a session's compiled plan pointer stale, so only an
// explicit refresh counts.
func isPlanRefreshEntry(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return false
	}
	return fn.Name() == "refreshPlan" && recv.Obj().Name() == "Session" &&
		pathHasSuffix(recv.Obj().Pkg().Path(), "internal/core")
}

// namedOf strips pointers and aliases down to the named type, nil when
// there is none.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// pathHasSuffix matches pkgPath against suffix at a path-segment
// boundary (mirrors the lint package's scope matching, so testdata
// packages exercise the same rules).
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
