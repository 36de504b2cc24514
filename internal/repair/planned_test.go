package repair

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/exec"
	"repro/internal/table"
)

// TestPlannedRepairGoldenEquivalence is the PlannedRepairer contract: for
// every black box, fixture and worker count, RepairIntoPlanned behind a
// compiled constraint-set plan produces exactly the table the unplanned
// serial RepairInto produces. Rounds alternate planned and unplanned runs
// on the same pooled run state, so a stale plan surviving the pool would
// be caught.
func TestPlannedRepairGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fx := range scratchFixtures(t) {
		p := plan.Compile(fx.dirty.Schema(), fx.dcs)
		for _, alg := range scratchAlgorithms(fx.dcs) {
			pl, ok := alg.(PlannedRepairer)
			if !ok {
				t.Fatalf("%s does not implement PlannedRepairer", alg.Name())
			}
			want, err := pl.RepairInto(ctx, fx.dcs, fx.dirty, nil)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", fx.name, alg.Name(), err)
			}
			for _, workers := range []int{1, 2, 8} {
				pool := exec.NewPool(workers)
				for round := 0; round < 2; round++ {
					got, err := pl.RepairIntoPlanned(ctx, fx.dcs, fx.dirty, nil, pool, p)
					if err != nil {
						t.Fatalf("%s/%s/w=%d: planned: %v", fx.name, alg.Name(), workers, err)
					}
					assertTablesIdentical(t,
						fmt.Sprintf("%s/%s/workers=%d/round=%d/planned", fx.name, alg.Name(), workers, round),
						got, want)
					// Interleave an unplanned run on the warmed pool state:
					// UsePlan(nil) must fully revert.
					got, err = pl.RepairIntoParallel(ctx, fx.dcs, fx.dirty, nil, pool)
					if err != nil {
						t.Fatal(err)
					}
					assertTablesIdentical(t,
						fmt.Sprintf("%s/%s/workers=%d/round=%d/unplanned", fx.name, alg.Name(), workers, round),
						got, want)
				}
			}
			// A nil plan must be exactly RepairIntoParallel's path.
			got, err := pl.RepairIntoPlanned(ctx, fx.dcs, fx.dirty, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, fx.name+"/"+alg.Name()+"/nil-plan", got, want)
		}
	}
}

// TestCellRepairedPlannedMatchesSerial: the binary view on a worker pool,
// behind a plan, or both must agree with the serial unplanned
// CellRepaired for every black box, across masked coalition variants —
// masking changes the table but not the schema, so the session plan stays
// applicable, exactly as in the Shapley loops. The same box wrapped in
// Func takes Run's Algorithm-only branch and must agree as well.
func TestCellRepairedPlannedMatchesSerial(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	pool := exec.NewPool(4)
	p := plan.Compile(ll.Dirty.Schema(), ll.DCs)
	for _, alg := range All(1) {
		inputs := []struct {
			name string
			alg  Algorithm
			pool *exec.Pool
			plan dc.SetPlanner
		}{
			{"pooled", alg, pool, nil},
			{"planned", alg, nil, p},
			{"pooled+planned", alg, pool, p},
			{"func", Func{AlgName: alg.Name(), Fn: alg.Repair}, pool, p},
		}
		clean, err := alg.Repair(ctx, ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		target := clean.GetRef(cell)
		masked := ll.Dirty.Clone()
		for n := 0; n < 12; n++ {
			ref := table.CellRef{Row: n % masked.NumRows(), Col: n % masked.NumCols()}
			if ref != cell {
				masked.SetRef(ref, table.Null())
			}
			want, err := CellRepaired(ctx, alg, ll.DCs, masked, cell, target, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				got, err := CellRepaired(ctx, in.alg, ll.DCs, masked, cell, target, in.pool, in.plan)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s: step %d: %v vs serial %v", alg.Name(), in.name, n, got, want)
				}
			}
		}
	}
}

// TestPlannedCoalitionSubsets pins the ConstraintGame shape: the plan is
// compiled for the full DC set, but coalitions hand the black box strict
// subsets — per-constraint entries still resolve and the output stays
// bit-identical to the unplanned subset run.
func TestPlannedCoalitionSubsets(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	p := plan.Compile(ll.Dirty.Schema(), ll.DCs)
	alg := NewAlgorithm1()
	for mask := 0; mask < 1<<len(ll.DCs); mask++ {
		subset := make([]*dc.Constraint, 0, len(ll.DCs))
		for i, c := range ll.DCs {
			if mask&(1<<i) != 0 {
				subset = append(subset, c)
			}
		}
		want, err := alg.RepairInto(ctx, subset, ll.Dirty, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.RepairIntoPlanned(ctx, subset, ll.Dirty, nil, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, fmt.Sprintf("coalition mask %b", mask), got, want)
	}
}
