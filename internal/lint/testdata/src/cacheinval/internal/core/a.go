// Package core is cacheinval testdata for the session side: its import
// path ends in internal/core, so its Session repair configuration
// (dcs / alg) is guarded, with the cross-package Engine.InvalidateCache
// barrier from the real exec package. Constraint-set mutations owe a
// second barrier — the plan refresh surface (Session.refreshPlan) —
// which Engine.InvalidateCache deliberately does not satisfy.
package core

import "repro/internal/exec"

// Session pairs a constraint set with an algorithm name.
type Session struct {
	dcs    []string
	alg    string
	engine *exec.Engine
	plan   []string
}

// refreshPlan recompiles the session's constraint-set plan; it is the
// plan refresh surface.
func (s *Session) refreshPlan() {
	s.plan = append(s.plan[:0], s.dcs...)
}

// SwapDCsGood replaces the constraint set, drops the caches keyed on the
// old one through the real cross-package barrier, and recompiles the plan.
func (s *Session) SwapDCsGood(dcs []string) {
	s.dcs = dcs
	s.engine.InvalidateCache()
	s.refreshPlan()
}

// SwapDCsBad replaces the constraint set and keeps serving stale cache
// entries and a stale plan: both obligations are reported.
func (s *Session) SwapDCsBad(dcs []string) {
	s.dcs = dcs // want "the session repair configuration .s.dcs. is mutated but not every path to return passes cache invalidation" "the session repair configuration .s.dcs. is mutated but not every path to return recompiles the constraint-set plan"
}

// SetAlgBad swaps the black box without invalidating or replanning.
func (s *Session) SetAlgBad(alg string) {
	s.alg = alg // want "the session repair configuration .s.alg. is mutated but not every path to return passes cache invalidation" "the session repair configuration .s.alg. is mutated but not every path to return recompiles the constraint-set plan"
}

// SwapDCsStalePlan invalidates the coalition caches but leaves the
// compiled plan stale — InvalidateCache is not a plan barrier.
func (s *Session) SwapDCsStalePlan(dcs []string) {
	s.dcs = dcs // want "the session repair configuration .s.dcs. is mutated but not every path to return recompiles the constraint-set plan"
	s.engine.InvalidateCache()
}

// SwapDCsPlanOnly recompiles the plan but never drops the coalition
// caches — the original obligation still stands.
func (s *Session) SwapDCsPlanOnly(dcs []string) {
	s.dcs = dcs // want "the session repair configuration .s.dcs. is mutated but not every path to return passes cache invalidation"
	s.refreshPlan()
}

// SwapDCsCacheClear clears an exec cache by hand on top of the cache
// barrier: no exec Clear recompiles the plan, so the plan obligation
// still stands.
func (s *Session) SwapDCsCacheClear(dcs []string) {
	s.dcs = dcs // want "the session repair configuration .s.dcs. is mutated but not every path to return recompiles the constraint-set plan"
	s.engine.InvalidateCache()
	s.engine.Cache().Clear()
}

// SwapDCsBranchy recompiles on only one branch: the fall-through return
// publishes a stale plan.
func (s *Session) SwapDCsBranchy(dcs []string, replan bool) {
	s.dcs = dcs // want "the session repair configuration .s.dcs. is mutated but not every path to return recompiles the constraint-set plan"
	s.engine.InvalidateCache()
	if replan {
		s.refreshPlan()
	}
}

// SwapDCsDeferred covers both obligations with deferred barriers, which
// run on every exit path.
func (s *Session) SwapDCsDeferred(dcs []string) {
	defer s.engine.InvalidateCache()
	defer s.refreshPlan()
	s.dcs = dcs
}

// swapVia is a same-package helper that transitively refreshes the plan;
// callers crossing it are covered by the dataflow summaries.
func (s *Session) swapVia() {
	s.engine.InvalidateCache()
	s.refreshPlan()
}

// SwapDCsHelper reaches both surfaces through a same-package helper.
func (s *Session) SwapDCsHelper(dcs []string) {
	s.dcs = dcs
	s.swapVia()
}

// SwapDCsAllowed documents why the write is safe.
func (s *Session) SwapDCsAllowed(dcs []string) {
	//lint:allow cacheinval constructor path: no cache exists before the session is returned
	s.dcs = dcs
}
