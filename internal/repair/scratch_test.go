package repair

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/table"
)

// scratchFixture bundles one golden-equivalence instance.
type scratchFixture struct {
	name  string
	dcs   []*dc.Constraint
	dirty *table.Table
}

// scratchFixtures returns the laliga and hospital instances the golden
// suite sweeps. The hospital table carries injected typos so every black
// box has real work to do.
func scratchFixtures(t *testing.T) []scratchFixture {
	t.Helper()
	ll := data.NewLaLiga()
	clean := data.GenerateHospital(data.HospitalConfig{Providers: 16, Zips: 4, Seed: 7})
	hospital, _, err := data.Inject(clean, data.InjectSpec{
		Rate: 0.1, Columns: []string{"City", "State"}, Kinds: []data.ErrorKind{data.ErrorTypo, data.ErrorSwap}, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []scratchFixture{
		{"laliga", ll.DCs, ll.Dirty},
		{"hospital", data.HospitalDCs(), hospital},
	}
}

// scratchAlgorithms returns every production PlannedRepairer plus a
// derived-rule RuleRepair, so the suite covers both rule flavours.
func scratchAlgorithms(dcs []*dc.Constraint) []Algorithm {
	return append(All(1), NewRuleRepair(dcs))
}

// TestRepairIntoGoldenEquivalence is the tentpole's contract: for every
// black box and fixture, RepairInto — with a nil work table, a fresh one,
// and a recycled one carrying arbitrary previous contents — produces
// exactly the table Repair produces, and never mutates the dirty input.
func TestRepairIntoGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, fx := range scratchFixtures(t) {
		for _, alg := range scratchAlgorithms(fx.dcs) {
			sr, ok := alg.(PlannedRepairer)
			if !ok {
				t.Fatalf("%s does not implement PlannedRepairer", alg.Name())
			}
			snapshot := fx.dirty.Clone()
			want, err := alg.Repair(ctx, fx.dcs, fx.dirty)
			if err != nil {
				t.Fatalf("%s/%s: Repair: %v", fx.name, alg.Name(), err)
			}
			if want == fx.dirty {
				t.Fatalf("%s/%s: Repair returned the input table", fx.name, alg.Name())
			}
			// Nil work allocates; the result must match.
			got, err := sr.RepairInto(ctx, fx.dcs, fx.dirty, nil)
			if err != nil {
				t.Fatalf("%s/%s: RepairInto(nil): %v", fx.name, alg.Name(), err)
			}
			if !got.Equal(want) {
				t.Errorf("%s/%s: RepairInto(nil) differs from Repair:\n%s\nvs\n%s", fx.name, alg.Name(), got, want)
			}
			// A recycled work table with stale contents must be refreshed,
			// repeatedly: run three rounds through the same scratch.
			work := table.MustFromStrings([]string{"X"}, [][]string{{"stale"}})
			for round := 0; round < 3; round++ {
				work, err = sr.RepairInto(ctx, fx.dcs, fx.dirty, work)
				if err != nil {
					t.Fatalf("%s/%s: RepairInto(recycled, round %d): %v", fx.name, alg.Name(), round, err)
				}
				if !work.Equal(want) {
					t.Errorf("%s/%s: round %d differs from Repair:\n%s\nvs\n%s", fx.name, alg.Name(), round, work, want)
				}
			}
			// Aliased work (caller error) must fall back to a clone.
			got, err = sr.RepairInto(ctx, fx.dcs, fx.dirty, fx.dirty)
			if err != nil {
				t.Fatalf("%s/%s: RepairInto(aliased): %v", fx.name, alg.Name(), err)
			}
			if got == fx.dirty {
				t.Errorf("%s/%s: aliased work returned the input table", fx.name, alg.Name())
			}
			if !got.Equal(want) {
				t.Errorf("%s/%s: RepairInto(aliased) differs from Repair", fx.name, alg.Name())
			}
			if !fx.dirty.Equal(snapshot) {
				t.Fatalf("%s/%s: dirty input was mutated", fx.name, alg.Name())
			}
		}
	}
}

// TestRepairIntoGoldenUnderCoalitions drives the exact workload the
// Shapley evaluation loop produces — dirty tables with masked (nulled)
// cells and constraint subsets — through CellRepaired twice per coalition:
// once with the PlannedRepairer fast path, once with the interface hidden
// behind Func (the legacy clone path). The binary views must agree bit for
// bit.
func TestRepairIntoGoldenUnderCoalitions(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	target := table.String("Spain")
	for _, alg := range scratchAlgorithms(ll.DCs) {
		legacy := Func{AlgName: alg.Name(), Fn: alg.Repair}
		// Sweep constraint subsets (all 2^4) on the unmasked table, plus a
		// set of masked variants under the full constraint set.
		for mask := 0; mask < 1<<len(ll.DCs); mask++ {
			var subset []*dc.Constraint
			for i, c := range ll.DCs {
				if mask&(1<<i) != 0 {
					subset = append(subset, c)
				}
			}
			fast, err := CellRepaired(ctx, alg, subset, ll.Dirty, cell, target, nil, nil)
			if err != nil {
				t.Fatalf("%s mask %b: %v", alg.Name(), mask, err)
			}
			slow, err := CellRepaired(ctx, legacy, subset, ll.Dirty, cell, target, nil, nil)
			if err != nil {
				t.Fatalf("%s mask %b (legacy): %v", alg.Name(), mask, err)
			}
			if fast != slow {
				t.Errorf("%s subset %b: fast %v, legacy %v", alg.Name(), mask, fast, slow)
			}
		}
		for n := 0; n < 12; n++ {
			masked := ll.Dirty.Clone()
			for k := 0; k < masked.NumCells(); k += n + 2 {
				ref := masked.RefAt(k)
				if ref != cell {
					masked.SetRef(ref, table.Null())
				}
			}
			fast, err := CellRepaired(ctx, alg, ll.DCs, masked, cell, target, nil, nil)
			if err != nil {
				t.Fatalf("%s masked %d: %v", alg.Name(), n, err)
			}
			slow, err := CellRepaired(ctx, legacy, ll.DCs, masked, cell, target, nil, nil)
			if err != nil {
				t.Fatalf("%s masked %d (legacy): %v", alg.Name(), n, err)
			}
			if fast != slow {
				t.Errorf("%s masked stride %d: fast %v, legacy %v", alg.Name(), n+2, fast, slow)
			}
		}
	}
}

// TestRepairIntoAllocs asserts the repairer half of the hot path: once the
// pooled run state and the recycled work table are warm, RepairInto under
// Algorithm 1 on the paper's table allocates nothing — including the
// conditional-mode statistics rules 2 and 4 use.
func TestRepairIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := NewAlgorithm1()
	work, err := alg.RepairInto(ctx, ll.DCs, ll.Dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pooled buffers to steady state.
	for i := 0; i < 3; i++ {
		if work, err = alg.RepairInto(ctx, ll.DCs, ll.Dirty, work); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		var err error
		if work, err = alg.RepairInto(ctx, ll.DCs, ll.Dirty, work); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("RepairInto allocates %.1f per op, want 0", got)
	}
}

// TestCellRepairedScratchAllocs covers the CellRepaired wrapper itself:
// the pooled work table plus RepairInto must keep the whole binary-view
// computation allocation-free.
func TestCellRepairedScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := NewAlgorithm1()
	cell := ll.CellOfInterest
	target := table.String("Spain")
	for i := 0; i < 4; i++ {
		if _, err := CellRepaired(ctx, alg, ll.DCs, ll.Dirty, cell, target, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := CellRepaired(ctx, alg, ll.DCs, ll.Dirty, cell, target, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("CellRepaired allocates %.1f per op, want 0", got)
	}
}
