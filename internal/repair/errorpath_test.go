package repair

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// errString renders an error for golden comparison (empty for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// errorPathFixture is one (constraints, dirty) input expected to exercise
// a failure or non-convergence path of the black boxes.
type errorPathFixture struct {
	name string
	dcs  []*dc.Constraint
	tbl  *table.Table
}

func errorPathFixtures() []errorPathFixture {
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "3"}, {"y", "3"},
	})
	return []errorPathFixture{
		{
			// A single-tuple constraint violated by every possible row: no
			// reassignment can ever satisfy it, so repairs must terminate
			// deterministically without thrashing — and identically on the
			// serial and parallel paths.
			name: "unsatisfiable",
			dcs: []*dc.Constraint{
				dc.MustParse("U1: !(t1.A = t1.A)"),
				dc.MustParse("C1: !(t1.A = t2.A & t1.B != t2.B)"),
			},
			tbl: tbl,
		},
		{
			// A constraint referencing an attribute the schema lacks fails
			// at evaluation time — the deterministic error path.
			name: "unknown-attribute",
			dcs: []*dc.Constraint{
				dc.MustParse("X1: !(t1.Nope = t2.Nope)"),
				dc.MustParse("C1: !(t1.A = t2.A & t1.B != t2.B)"),
			},
			tbl: tbl,
		},
	}
}

// TestParallelRepairErrorGoldenEquivalence extends the PlannedRepairer
// bit-identity contract to the *error* channel: for every black box,
// fixture and worker count, RepairIntoParallel must return exactly the
// error RepairInto returns (same message; nil iff nil) — and when both
// succeed, the identical table.
func TestParallelRepairErrorGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fx := range errorPathFixtures() {
		for _, alg := range All(1) {
			pr, ok := alg.(PlannedRepairer)
			if !ok {
				t.Fatalf("%s does not implement PlannedRepairer", alg.Name())
			}
			want, wantErr := pr.RepairInto(ctx, fx.dcs, fx.tbl, nil)
			for _, workers := range []int{1, 2, 8} {
				pool := exec.NewPool(workers)
				for round := 0; round < 2; round++ {
					label := fmt.Sprintf("%s/%s/workers=%d/round=%d", fx.name, alg.Name(), workers, round)
					got, gotErr := pr.RepairIntoParallel(ctx, fx.dcs, fx.tbl, nil, pool)
					if errString(gotErr) != errString(wantErr) {
						t.Fatalf("%s: error %q vs serial %q", label, errString(gotErr), errString(wantErr))
					}
					if wantErr == nil {
						assertTablesIdentical(t, label, got, want)
					}
				}
			}
		}
	}
}

// TestParallelRepairContextCancellation: a pre-canceled context must
// surface context.Canceled from both paths — not a worker-dependent
// wrapper, not a success.
func TestParallelRepairContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fx := errorPathFixtures()[0]
	for _, alg := range All(1) {
		pr := alg.(PlannedRepairer)
		_, serialErr := pr.RepairInto(ctx, fx.dcs, fx.tbl, nil)
		if !errors.Is(serialErr, context.Canceled) {
			t.Fatalf("%s: serial error = %v, want context.Canceled", alg.Name(), serialErr)
		}
		for _, workers := range []int{1, 4} {
			_, parErr := pr.RepairIntoParallel(ctx, fx.dcs, fx.tbl, nil, exec.NewPool(workers))
			if !errors.Is(parErr, context.Canceled) {
				t.Fatalf("%s/w=%d: parallel error = %v, want context.Canceled", alg.Name(), workers, parErr)
			}
			if errString(parErr) != errString(serialErr) {
				t.Fatalf("%s/w=%d: parallel error %q vs serial %q", alg.Name(), workers, errString(parErr), errString(serialErr))
			}
		}
	}
}

// TestCellRepairedWithErrorGolden: the binary-view wrapper must report the
// same error for the pooled/parallel path as for the plain one.
func TestCellRepairedWithErrorGolden(t *testing.T) {
	ctx := context.Background()
	fx := errorPathFixtures()[1] // unknown attribute: deterministic error
	cell := table.CellRef{Row: 1, Col: 1}
	for _, alg := range All(1) {
		_, serialErr := CellRepaired(ctx, alg, fx.dcs, fx.tbl, cell, table.String("1"), nil, nil)
		for _, workers := range []int{1, 4} {
			_, parErr := CellRepaired(ctx, alg, fx.dcs, fx.tbl, cell, table.String("1"), exec.NewPool(workers), nil)
			if errString(parErr) != errString(serialErr) {
				t.Fatalf("%s/w=%d: error %q vs serial %q", alg.Name(), workers, errString(parErr), errString(serialErr))
			}
		}
	}
}
