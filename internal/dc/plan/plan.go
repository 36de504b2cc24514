// Package plan compiles a denial-constraint set into one shared
// relational-algebra execution plan.
//
// Every layer below treats constraints in isolation: each compiles its
// own kernel, derives its own hash partition, and rescans its own
// buckets. The explanation workloads evaluate the *whole* DC set per
// coalition thousands of times, so the set is planned as one query
// workload instead:
//
//   - Partition sharing: constraints whose canonical equality-join
//     column sets are equal share one partition outright (the canonical
//     form also unifies permuted and duplicated join attributes); a
//     constraint may additionally adopt another constraint's set as a
//     coarser shared partition when it is a proper subset missing at
//     most one column AND the constraint carries a pre-filter bitmap to
//     bound the extra intra-bucket candidates — bounded coarsening,
//     since without statistics an aggressively coarse partition could
//     degrade a scan to quadratic.
//     Edit-log delta replay then runs once per shared partition instead
//     of once per constraint.
//   - Predicate ordering: within each constraint, predicates are
//     reordered by a statistics-free selectivity heuristic — operator
//     class (=, then order comparisons, then ≠) refined by operand
//     arity (constant comparisons before single-tuple before
//     cross-tuple), greedy and deterministic, declaration order
//     breaking ties.
//   - Predicate pushdown: predicates reading a single tuple side are
//     hoisted out of the bucket pair loop into per-row pre-filter
//     bitmaps (dc's prefilter), evaluated once per row per generation
//     instead of once per candidate pair.
//   - Hash pre-sizing: observed partition slot counts and violation
//     cardinalities are carried across generations as hints, sizing
//     maps and pair lists on first build.
//
// All choices are pure strategy: planned execution is bit-identical to
// the per-constraint reference (the executor keeps canonical output
// order, re-checks full kernels on point probes, and serves group
// enumeration from exact partitions). Plans are immutable after Compile
// except for the mutex-guarded hint maps, so one plan is safely shared
// by every scan index of a session across worker goroutines.
package plan

import (
	"slices"
	"sync"

	"repro/internal/dc"
	"repro/internal/table"
)

// Plan is one compiled constraint-set plan: per-constraint execution
// choices plus cardinality feedback carried across generations.
type Plan struct {
	schema  *table.Schema
	choices map[*dc.Constraint]dc.PlanChoice

	// mu guards the hint maps only; choices are immutable after Compile.
	mu    sync.Mutex
	parts map[string]int
	viols map[*dc.Constraint]int
}

// subsetSlack bounds partition coarsening: a constraint adopts a shared
// subset partition only when it drops at most this many join columns.
const subsetSlack = 1

// maxHintEntries bounds each hint map of a long-lived plan.
const maxHintEntries = 1024

// Compile plans the constraint set against a schema. Compile never
// fails: constraints that do not resolve against the schema simply get
// no choice and run unplanned, surfacing their errors through the
// executor exactly as before.
func Compile(schema *table.Schema, cs []*dc.Constraint) *Plan {
	p := &Plan{
		schema:  schema,
		choices: make(map[*dc.Constraint]dc.PlanChoice, len(cs)),
		parts:   make(map[string]int),
		viols:   make(map[*dc.Constraint]int),
	}
	// Canonical join-column sets, deduplicated across the constraint set.
	// sets is kept in first-appearance order so every later pass is
	// deterministic in the constraint declaration order.
	canon := make([][]int, len(cs))
	var sets [][]int
	for i, c := range cs {
		cols := canonicalCols(c.JoinColumns(schema))
		canon[i] = cols
		if len(cols) == 0 {
			continue
		}
		if !containsCols(sets, cols) {
			sets = append(sets, cols)
		}
	}
	for i, c := range cs {
		ch := dc.PlanChoice{
			ScanCols:  canon[i],
			PredOrder: orderPreds(c),
		}
		ch.Pre0, ch.Pre1 = pushdownPreds(c)
		// Coarsening cost rule: adopting a subset partition trades extra
		// intra-bucket candidate pairs for shared builds and delta replay.
		// Without statistics the trade is only clearly favorable when a
		// pre-filter bitmap bounds the extra candidates before they reach
		// the kernel, so constraints without one keep their exact
		// partition (equal canonical sets still share outright through
		// the signature).
		if len(ch.Pre0)+len(ch.Pre1) > 0 {
			ch.ScanCols = shareScanCols(canon[i], sets)
		}
		p.choices[c] = ch
	}
	return p
}

// canonicalCols sorts and deduplicates a join-column list. The partition
// a column set induces does not depend on order or multiplicity, so the
// canonical form lets permuted spellings share one bucketSet.
func canonicalCols(cols []int) []int {
	if len(cols) == 0 {
		return nil
	}
	out := slices.Clone(cols)
	slices.Sort(out)
	return slices.Compact(out)
}

// containsCols reports whether sets already holds an equal column list.
func containsCols(sets [][]int, cols []int) bool {
	for _, s := range sets {
		if slices.Equal(s, cols) {
			return true
		}
	}
	return false
}

// shareScanCols picks the partition backing a constraint's pair scans:
// its own canonical set, or another constraint's proper subset of it
// missing at most subsetSlack columns — the largest such subset, with
// the lexicographically smallest column list breaking ties, so the
// choice is deterministic and both constraints converge on one shared
// bucketSet.
func shareScanCols(cols []int, sets [][]int) []int {
	if len(cols) == 0 {
		return nil
	}
	var best []int
	for _, s := range sets {
		if len(s) >= len(cols) || len(s) < len(cols)-subsetSlack || len(s) == 0 {
			continue
		}
		if !subsetOf(s, cols) {
			continue
		}
		if best == nil || len(s) > len(best) ||
			(len(s) == len(best) && slices.Compare(s, best) < 0) {
			best = s
		}
	}
	if best == nil {
		return cols
	}
	return best
}

// subsetOf reports whether every element of sub appears in super; both
// are sorted and deduplicated.
func subsetOf(sub, super []int) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
		j++
	}
	return true
}

// orderPreds returns the selectivity-ordered predicate permutation:
// ascending rank, declaration order breaking ties (a stable greedy
// sort — SNIPPETS' statistics-free join ordering result is the license
// to order greedily without cardinality estimates).
func orderPreds(c *dc.Constraint) []int {
	order := make([]int, len(c.Preds))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return predRank(c.Preds[a]) - predRank(c.Preds[b])
	})
	return order
}

// predRank is the statistics-free selectivity heuristic: operator class
// (equality is the most selective, then order comparisons, then ≠,
// which rejects almost nothing) refined by operand arity (the number of
// distinct tuple sides read — constant comparisons cost least and
// prune per row, cross-tuple predicates cost most). Lower ranks run
// first.
func predRank(p dc.Predicate) int {
	var class int
	switch p.Op {
	case dc.OpEq:
		class = 0
	case dc.OpNeq:
		class = 2
	default:
		class = 1
	}
	return class*3 + predArity(p)
}

// predArity counts the distinct tuple sides a predicate reads: 0 for
// constant-only, 1 for single-side, 2 for cross-tuple.
func predArity(p dc.Predicate) int {
	seen := [2]bool{}
	n := 0
	for _, o := range []dc.Operand{p.Left, p.Right} {
		if o.IsConst {
			continue
		}
		side := o.Tuple & 1
		if !seen[side] {
			seen[side] = true
			n++
		}
	}
	return n
}

// pushdownPreds splits out the predicates hoistable into per-row
// pre-filter bitmaps: every predicate whose non-constant operands all
// read one tuple side (and that has at least one non-constant operand)
// moves to that side's bitmap. Cross-tuple and constant-only predicates
// stay in the residual kernel.
func pushdownPreds(c *dc.Constraint) (pre0, pre1 []int) {
	if c.SingleTuple() {
		return nil, nil
	}
	for i, p := range c.Preds {
		side, ok := singleSide(p)
		if !ok {
			continue
		}
		if side == 0 {
			pre0 = append(pre0, i)
		} else {
			pre1 = append(pre1, i)
		}
	}
	return pre0, pre1
}

// singleSide reports the one tuple side a predicate reads, false when
// it reads both or neither.
func singleSide(p dc.Predicate) (int, bool) {
	side, n := 0, 0
	seen := [2]bool{}
	for _, o := range []dc.Operand{p.Left, p.Right} {
		if o.IsConst {
			continue
		}
		s := o.Tuple & 1
		if !seen[s] {
			seen[s] = true
			side = s
			n++
		}
	}
	if n != 1 {
		return 0, false
	}
	return side, true
}

// PlanSchema implements dc.SetPlanner.
func (p *Plan) PlanSchema() *table.Schema { return p.schema }

// ConstraintPlan implements dc.SetPlanner.
func (p *Plan) ConstraintPlan(c *dc.Constraint) (dc.PlanChoice, bool) {
	ch, ok := p.choices[c]
	return ch, ok
}

// PartitionHint implements dc.SetPlanner.
func (p *Plan) PartitionHint(sig string) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.parts[sig]
	return n, ok
}

// RecordPartition implements dc.SetPlanner.
func (p *Plan) RecordPartition(sig string, slots int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.parts) >= maxHintEntries {
		clear(p.parts)
	}
	p.parts[sig] = slots
}

// ViolationHint implements dc.SetPlanner.
func (p *Plan) ViolationHint(c *dc.Constraint) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.viols[c]
	return n, ok
}

// RecordViolations implements dc.SetPlanner.
func (p *Plan) RecordViolations(c *dc.Constraint, pairs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.viols) >= maxHintEntries {
		clear(p.viols)
	}
	p.viols[c] = pairs
}
