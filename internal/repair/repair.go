// Package repair implements the repair algorithms that T-REx explains.
//
// T-REx treats the repairer as a black box: everything the explainer needs
// is the Algorithm interface below. The package provides five concrete
// black boxes spanning the approaches cited by the paper:
//
//   - Algorithm1: the paper's own worked example (rule per DC, most-common
//     and conditional-most-probable fixes) generalized to arbitrary DC sets;
//   - HoloSim: a HoloClean-style probabilistic cleaner (detect → candidate
//     domains → features → log-linear inference), substituting for the real
//     HoloClean;
//   - Greedy: a holistic violation-hypergraph baseline in the spirit of
//     Chu, Ilyas and Papotti (ICDE 2013);
//   - FDChase: an equivalence-class chase for FD-shaped DCs in the spirit
//     of Bohannon et al. (ICDE 2007);
//   - plus test doubles (Func) for failure injection.
//
// # The in-place repair protocol
//
// All four production black boxes additionally implement PlannedRepairer,
// the zero-allocation contract the Shapley evaluation loop runs against;
// Run is the one dispatch that picks it over plain Repair. RepairInto
// refreshes a caller-owned work table from the dirty input and repairs it
// in place, while every per-run buffer the algorithm needs (statistics,
// scan indexes, candidate domains, violation lists) is pooled inside the
// implementation; RepairIntoParallel and RepairIntoPlanned run the same
// repair on a worker pool and behind a compiled constraint-set plan. The
// rules of the contract:
//
//   - dirty is never mutated; only work is. work == nil allocates a fresh
//     clone, so Repair(ctx, cs, dirty) ≡ RepairInto(ctx, cs, dirty, nil)
//     and the two paths are behaviourally identical (golden-tested).
//   - the returned table is work itself (or the fresh clone); callers that
//     recycle it across calls hit the steady-state zero-allocation path,
//     because the work-table refresh (table.CopyFrom) logs per-cell deltas
//     that keep the pooled dc.ScanIndex on its incremental bucket path.
//     When the dirty table changed shape since the last refresh (a row
//     insert or swap-delete renumbered tuples), CopyFrom resets the work
//     table's edit log instead, so the pooled index rebuilds rather than
//     replaying cell deltas against reshuffled row identities.
//   - the refresh itself costs the changed cells, not the table: a work
//     table refreshed from the same dirty table as last time compares
//     only the cells the dirty table's edit log and its own log name
//     since then — the coalition walk's one-cell step plus the cells the
//     previous repair wrote. It compares every cell after a switch of
//     dirty table, a structural edit or ring overrun on either side, or
//     inside an open ApplyBatch (see table.CopyFrom). Implementations
//     must therefore write work only through the table's logged
//     mutators, which the editlog analyzer enforces.
//   - determinism is preserved: for a fixed (cs, dirty) input the output
//     is byte-identical to Repair's, whatever state the pooled buffers
//     carry over — Shapley values are defined over a function, so any
//     carried-over nondeterminism would corrupt the explanation.
//   - implementations are safe for concurrent RepairInto calls (the run
//     state is a sync.Pool), but a single work table must not be shared by
//     concurrent callers.
package repair

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// Algorithm is the black-box contract: given constraints and a dirty table,
// produce a repaired table. Implementations must
//
//   - not mutate the input table (work on a clone),
//   - be deterministic for a fixed input (all randomness seeded at
//     construction), because Shapley values are defined over a function,
//   - respect context cancellation on long runs.
type Algorithm interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Repair returns the cleaned version of dirty under the constraint set
	// cs. The returned table is freshly allocated.
	Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error)
}

// PlannedRepairer is the in-place, parallel and planned extension of
// Algorithm. See the package comment for the in-place contract.
//
// Parallelism: the black box accepts a session worker pool and fans its
// disjoint-bucket passes across it — full violation derivations run
// bucket-parallel through the live set, and black boxes whose repair step
// itself decomposes over disjoint join groups (the FD chase) compute
// per-group fixes concurrently and apply them serially in the serial
// pass's order. A nil or one-worker pool is the serial path.
//
// Planning: the black box accepts the session's compiled set plan
// (dc.SetPlanner) and installs it on its pooled live violation set, so
// every violation scan of the run shares partitions across constraints,
// evaluates selectivity-ordered kernels behind pre-filter bitmaps, and
// pre-sizes its hash maps from carried cardinalities. A nil plan is the
// per-constraint path.
//
// The contract is strict bit-identity: for any (cs, dirty, pool, plan),
// RepairIntoPlanned produces exactly the table RepairInto produces — the
// unplanned serial path stays the golden cross-validation reference (see
// TestParallelRepairGoldenEquivalence). Parallelism and planning are
// scheduling choices, never semantic ones, because Shapley values are
// defined over a deterministic function of the input. All four production
// black boxes implement it.
type PlannedRepairer interface {
	Algorithm
	// RepairInto is Repair writing into caller-owned scratch storage. The
	// returned table is work when work != nil, a fresh table otherwise.
	RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error)
	// RepairIntoParallel is RepairInto with disjoint-bucket passes fanned
	// across pool.
	RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error)
	// RepairIntoPlanned is RepairIntoParallel executing behind the
	// compiled constraint-set plan.
	RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error)
}

// pooledStats is the generation-checked statistics snapshot shared by the
// black boxes' pooled run states: fresh returns statistics for work's
// current contents, catching the pooled snapshot up incrementally
// (table.Stats.Sync: per-column deltas from the work table's edit log,
// full rebuild on overrun) when the table pointer or generation moved
// since the last call.
type pooledStats struct {
	stats *table.Stats
}

func (p *pooledStats) fresh(work *table.Table) *table.Stats {
	if p.stats == nil {
		p.stats = table.NewStats(work)
		return p.stats
	}
	p.stats.Sync(work)
	return p.stats
}

// prepareWork refreshes work from dirty for an in-place repair run,
// handling the nil (allocate) and aliased (defensive clone) cases shared by
// every PlannedRepairer implementation.
func prepareWork(dirty, work *table.Table) *table.Table {
	if work == nil || work == dirty {
		return dirty.Clone()
	}
	work.CopyFrom(dirty)
	return work
}

// Func adapts a function to the Algorithm interface; used by tests for
// failure injection (errors, hangs, panics).
type Func struct {
	// AlgName is returned by Name.
	AlgName string
	// Fn is invoked by Repair.
	Fn func(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error)
}

// Name implements Algorithm.
func (f Func) Name() string { return f.AlgName }

// Repair implements Algorithm.
func (f Func) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return f.Fn(ctx, cs, dirty)
}

// Passthrough is the identity black box: it returns the input table
// unchanged (and unallocated). It exists for benchmarks and allocation
// tests that need to isolate the coalition-evaluation harness from any
// repairer cost; it deliberately violates the "freshly allocated" return
// contract, which is harmless for measurement.
type Passthrough struct{}

// Name implements Algorithm.
func (Passthrough) Name() string { return "passthrough" }

// Repair implements Algorithm.
func (Passthrough) Repair(_ context.Context, _ []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return dirty, nil
}

// workPool recycles the work tables CellRepaired hands to PlannedRepairer
// black boxes. Tables of any shape share the pool: RepairInto's refresh
// resizes a mismatched table in place, so a mixed workload merely warms the
// pool toward the shapes it actually evaluates.
var workPool sync.Pool

// Run is the one repair dispatch: a PlannedRepairer runs RepairIntoPlanned
// on a fresh clone of dirty, on pool and behind plan; any other Algorithm
// runs Repair. A nil plan and a nil or one-worker pool need no branch of
// their own: the PlannedRepairer contract makes them RepairIntoParallel
// and RepairInto.
func Run(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	clean, _, err := run(ctx, alg, cs, dirty, pool, plan, false)
	return clean, err
}

// run is Run, repairing into a table borrowed from workPool when borrow
// is set. pooled reports that clean is such a table, to be handed back
// with workPool.Put. An Algorithm that is not a PlannedRepairer borrows
// nothing: its Repair may return a table the caller does not own
// (Passthrough returns dirty itself), which must never enter the pool.
func run(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, pool *exec.Pool, plan dc.SetPlanner, borrow bool) (clean *table.Table, pooled bool, err error) {
	pr, ok := alg.(PlannedRepairer)
	if !ok {
		clean, err = alg.Repair(ctx, cs, dirty)
		return clean, false, err
	}
	var work *table.Table
	if borrow {
		work, _ = workPool.Get().(*table.Table)
	}
	clean, err = pr.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
	if err != nil {
		if work != nil {
			workPool.Put(work)
		}
		return nil, false, err
	}
	return clean, borrow, nil
}

// CellRepaired is the binary view Alg|t[A] of the paper (§2.1): it runs the
// black box on (cs, dirty) through Run and reports 1 when the cell of
// interest ends up with the target clean value, 0 otherwise. The target is
// the value the full repair assigned, so "repaired" means "repaired to the
// same value as under the complete input".
//
// A PlannedRepairer repairs into a pooled work table instead of a fresh
// clone, making the whole evaluation→repair round trip allocation-free in
// steady state — the hot path of every Shapley sampling loop.
func CellRepaired(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, cell table.CellRef, target table.Value, pool *exec.Pool, plan dc.SetPlanner) (float64, error) {
	clean, pooled, err := run(ctx, alg, cs, dirty, pool, plan, true)
	if err != nil {
		return 0, fmt.Errorf("repair: black box %s: %w", alg.Name(), err)
	}
	out, err := cellRepairedResult(alg, dirty, clean, cell, target)
	if pooled {
		workPool.Put(clean)
	}
	return out, err
}

// cellRepairedResult checks the repaired shape and reads off the binary
// view for the cell of interest.
func cellRepairedResult(alg Algorithm, dirty, clean *table.Table, cell table.CellRef, target table.Value) (float64, error) {
	if clean.NumRows() != dirty.NumRows() || clean.NumCols() != dirty.NumCols() {
		return 0, fmt.Errorf("repair: black box %s changed table shape", alg.Name())
	}
	if clean.GetRef(cell).SameContent(target) {
		return 1, nil
	}
	return 0, nil
}

// All returns one instance of every production algorithm, for the
// black-box-agnosticism experiment (E12).
func All(seed int64) []Algorithm {
	return []Algorithm{
		NewAlgorithm1(),
		NewHoloSim(seed),
		NewGreedy(),
		NewFDChase(),
	}
}
