package repair

import (
	"context"
	"slices"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// Greedy is a holistic-cleaning baseline in the spirit of Chu, Ilyas and
// Papotti (ICDE 2013): it builds the violation hypergraph (which cells
// participate in which violations), repeatedly picks the cell covering the
// most violations, and reassigns it to the candidate value that minimizes
// the number of violations the owning tuple participates in. It stops at
// consistency or after MaxSteps reassignments.
type Greedy struct {
	// MaxSteps bounds the number of cell reassignments; 0 means rows×cols.
	MaxSteps int
	// runs pools the per-run scratch state behind the PlannedRepairer
	// contract.
	runs sync.Pool
}

// NewGreedy returns a Greedy with default limits.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Algorithm.
func (g *Greedy) Name() string { return "greedy-holistic" }

// greedyRun is the reusable per-run state of one RepairInto invocation.
// The hypergraph rebuild after every reassignment reads the live violation
// set, so only the reassigned row's pairs are re-derived per step.
type greedyRun struct {
	live *dc.LiveViolationSet
	pooledStats
	vsBuf  []dc.Violation
	counts map[table.CellRef]int
	refs   []table.CellRef
}

// Repair implements Algorithm.
func (g *Greedy) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return g.RepairInto(ctx, cs, dirty, nil)
}

// RepairInto implements PlannedRepairer: Repair writing into the
// caller-owned work table with pooled per-run buffers.
func (g *Greedy) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	return g.repairInto(ctx, cs, dirty, work, nil, nil)
}

// RepairIntoParallel implements PlannedRepairer: the greedy commit
// loop is sequential by design (each reassignment changes the hypergraph
// the next pick reads), but the hypergraph's full violation derivations
// fan their disjoint buckets across the session pool on large tables —
// output bit-identical to RepairInto by the live set's contract.
func (g *Greedy) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	return g.repairInto(ctx, cs, dirty, work, pool, nil)
}

// RepairIntoPlanned implements PlannedRepairer: the run's live violation
// set (and the point probes of the candidate search, which share its
// index) executes behind the session's compiled constraint-set plan —
// output bit-identical to RepairInto by the plan contract.
//
//lint:hotpath
func (g *Greedy) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	return g.repairInto(ctx, cs, dirty, work, pool, plan)
}

func (g *Greedy) repairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	work = prepareWork(dirty, work)
	st, ok := g.runs.Get().(*greedyRun)
	if !ok {
		st = &greedyRun{live: dc.NewLiveViolationSet(), counts: make(map[table.CellRef]int)}
	}
	defer g.runs.Put(st)
	st.live.UsePlan(plan)
	if pool != nil {
		st.live.Pool = pool
		defer func() { st.live.Pool = nil }()
	}
	maxSteps := g.MaxSteps
	if maxSteps <= 0 {
		maxSteps = work.NumCells()
	}
	for step := 0; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hot, err := g.hotCells(cs, work, st)
		if err != nil {
			return nil, err
		}
		if len(hot) == 0 {
			break // consistent
		}
		stats := st.fresh(work)
		progressed := false
		// Try cells from most to least loaded; commit the first strict
		// improvement. Join-key cells often cannot improve (no alternative
		// value exists), so falling through to cooler cells is essential.
		for _, cell := range hot {
			best, improved, err := g.bestCandidate(ctx, cs, work, stats, cell, st.live.Index())
			if err != nil {
				return nil, err
			}
			if improved {
				work.SetRef(cell, best)
				progressed = true
				break
			}
		}
		if !progressed {
			// No cell can be improved; freeze the table state rather than
			// thrash (deterministic termination).
			break
		}
	}
	return work, nil
}

// hotCells returns every cell participating in at least one violation,
// ordered by descending violation count, ties by vectorization order. The
// returned slice aliases the run's pooled buffer.
func (g *Greedy) hotCells(cs []*dc.Constraint, t *table.Table, st *greedyRun) ([]table.CellRef, error) {
	clear(st.counts)
	st.refs = st.refs[:0]
	counts := st.counts
	for _, c := range cs {
		vs, err := st.live.Append(c, t, st.vsBuf[:0])
		st.vsBuf = vs
		if err != nil {
			return nil, err
		}
		attrs := c.Attributes()
		for _, v := range vs {
			for _, attr := range attrs {
				col := t.Schema().MustIndex(attr)
				ref := table.CellRef{Row: v.Row1, Col: col}
				if counts[ref] == 0 {
					st.refs = append(st.refs, ref)
				}
				counts[ref]++
				if v.Row2 != v.Row1 {
					ref = table.CellRef{Row: v.Row2, Col: col}
					if counts[ref] == 0 {
						st.refs = append(st.refs, ref)
					}
					counts[ref]++
				}
			}
		}
	}
	refs := st.refs
	//lint:allow allocfree one comparator closure per hot-cell ranking pass; SortFunc does not retain it
	slices.SortFunc(refs, func(a, b table.CellRef) int {
		if counts[a] != counts[b] {
			return counts[b] - counts[a]
		}
		return t.VecIndex(a) - t.VecIndex(b)
	})
	return refs, nil
}

// bestCandidate evaluates the column's observed values as replacements and
// returns the one that strictly reduces the number of violating pairs the
// owning tuple participates in. Counting pairs (not just violated
// constraints) gives the search gradient within a column: lowering a
// tuple's conflicts from five partners to one is progress even though the
// same constraint stays violated.
func (g *Greedy) bestCandidate(ctx context.Context, cs []*dc.Constraint, t *table.Table, stats *table.Stats, cell table.CellRef, ix *dc.ScanIndex) (table.Value, bool, error) {
	old := t.GetRef(cell)
	current, err := tupleViolationPairs(cs, t, cell.Row, ix)
	if err != nil {
		return table.Null(), false, err
	}
	bestVal, bestViol := old, current
	for _, e := range stats.Column(cell.Col).Entries() {
		if err := ctx.Err(); err != nil {
			return table.Null(), false, err
		}
		if e.Value.SameContent(old) {
			continue
		}
		t.SetRef(cell, e.Value)
		viol, err := tupleViolationPairs(cs, t, cell.Row, ix)
		t.SetRef(cell, old)
		if err != nil {
			return table.Null(), false, err
		}
		if viol < bestViol {
			bestVal, bestViol = e.Value, viol
		}
	}
	return bestVal, bestViol < current, nil
}

// tupleViolationPairs counts the violating tuple pairs row i participates
// in, summed over constraints (single-tuple violations count once). When an
// index is supplied, pair constraints with equality join keys are counted
// over the row's hash bucket only — partners outside the bucket cannot
// satisfy the equality predicates, so the count is identical and the probe
// drops from O(rows) to O(bucket).
func tupleViolationPairs(cs []*dc.Constraint, t *table.Table, row int, ix *dc.ScanIndex) (int, error) {
	n := 0
	for _, c := range cs {
		if c.SingleTuple() {
			sat, err := c.SatisfiedPair(t, row, row)
			if err != nil {
				return 0, err
			}
			if sat {
				n++
			}
			continue
		}
		m, err := c.ViolationPairsForRow(t, row, ix)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}
