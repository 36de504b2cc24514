package repair

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// assertTablesIdentical compares cell-for-cell with exact (kind-sensitive)
// equality — bit-identity, not just SameContent.
func assertTablesIdentical(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for i := 0; i < want.NumRows(); i++ {
		for j := 0; j < want.NumCols(); j++ {
			if got.Get(i, j) != want.Get(i, j) {
				t.Fatalf("%s: cell (%d,%d): %v vs %v", label, i, j, got.Get(i, j), want.Get(i, j))
			}
		}
	}
}

// TestParallelRepairGoldenEquivalence is the PlannedRepairer contract:
// for every black box, fixture and worker count, RepairIntoParallel
// produces exactly the table the serial RepairInto (itself golden-tested
// against Repair) produces — the serial path stays the cross-validation
// reference.
func TestParallelRepairGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fx := range scratchFixtures(t) {
		for _, alg := range scratchAlgorithms(fx.dcs) {
			pr, ok := alg.(PlannedRepairer)
			if !ok {
				t.Fatalf("%s does not implement PlannedRepairer", alg.Name())
			}
			want, err := pr.RepairInto(ctx, fx.dcs, fx.dirty, nil)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", fx.name, alg.Name(), err)
			}
			for _, workers := range []int{1, 2, 8} {
				pool := exec.NewPool(workers)
				// Run twice per pool: the second run reuses pooled run
				// state warmed by a parallel pass.
				for round := 0; round < 2; round++ {
					got, err := pr.RepairIntoParallel(ctx, fx.dcs, fx.dirty, nil, pool)
					if err != nil {
						t.Fatalf("%s/%s/w=%d: parallel: %v", fx.name, alg.Name(), workers, err)
					}
					assertTablesIdentical(t,
						fmt.Sprintf("%s/%s/workers=%d/round=%d", fx.name, alg.Name(), workers, round),
						got, want)
				}
				// A nil pool must be exactly the serial path.
				got, err := pr.RepairIntoParallel(ctx, fx.dcs, fx.dirty, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertTablesIdentical(t, fx.name+"/"+alg.Name()+"/nil-pool", got, want)
			}
		}
	}
}

// TestParallelChaseLargePartition drives FDChase across the materialized
// live-set partition with enough violating groups to engage the
// group-parallel compute path, and pins the output to the serial chase.
func TestParallelChaseLargePartition(t *testing.T) {
	ctx := context.Background()
	clean := data.GenerateSoccer(data.SoccerConfig{Leagues: 24, TeamsPerLeague: 12, Seed: 5})
	dirty, _, err := data.Inject(clean, data.InjectSpec{
		Rate: 0.15, Columns: []string{"Country"}, Kinds: []data.ErrorKind{data.ErrorTypo}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := []*dc.Constraint{dc.MustParse("C1: !(t1.League = t2.League & t1.Country != t2.Country)")}
	chase := NewFDChase()
	want, err := chase.RepairInto(ctx, cs, dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := chase.RepairIntoParallel(ctx, cs, dirty, nil, exec.NewPool(workers))
		if err != nil {
			t.Fatal(err)
		}
		assertTablesIdentical(t, fmt.Sprintf("fdchase-large/workers=%d", workers), got, want)
	}
	// Sanity: the chase actually repaired something, or this test proves
	// nothing.
	if dirty.Equal(want) {
		t.Fatal("fixture has no repairs; parallel equivalence is vacuous")
	}
}

// TestCellRepairedWithPoolMatchesSerial: the binary view through a
// multi-worker pool must agree with the serial CellRepaired for every
// black box, across masked coalition variants.
func TestCellRepairedWithPoolMatchesSerial(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	pool := exec.NewPool(4)
	for _, alg := range All(1) {
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
			got, err := CellRepaired(ctx, alg, ll.DCs, masked, cell, target, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: step %d: pooled %v vs serial %v", alg.Name(), n, got, want)
			}
		}
	}
}
