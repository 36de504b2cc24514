package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// sameDiffs compares two repair diffs entry-for-entry, bit-identically.
func sameDiffs(t *testing.T, label string, got, want []table.CellDiff) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d diffs vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: diff %d: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestRepairTargetCacheGolden is the repair-target materialization's
// bit-identity contract: repeat Repair and Target calls on a session
// explainer replay the memoized diff, and every replayed answer matches
// the referenceExplainer exactly.
func TestRepairTargetCacheGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	for _, alg := range repair.All(1) {
		t.Run(alg.Name(), func(t *testing.T) {
			sess, err := NewSession(alg, ll.DCs, ll.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			wantClean, wantDiffs, err := referenceExplainer(alg, ll.DCs, sess.Dirty()).Repair(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// First session call populates the cache; the repeats replay it.
			for i := 0; i < 3; i++ {
				clean, diffs, err := sess.Explainer().Repair(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !clean.Equal(wantClean) {
					t.Fatalf("call %d: cached clean table differs:\n%v\nwant:\n%v", i, clean, wantClean)
				}
				sameDiffs(t, "repair diffs", diffs, wantDiffs)
			}
			hits, _ := sess.Engine().RepairTargets().Stats()
			if hits < 2 {
				t.Fatalf("repeat Repair must hit the repair-target cache, got %d hits", hits)
			}

			// Target for every cell, repaired or not, answered off the diff.
			// Each reference answer comes from a fresh reference, so it runs
			// the black box instead of replaying a memoized diff.
			for _, cell := range sess.Dirty().Cells() {
				wantTarget, wantRepaired, err := referenceExplainer(alg, ll.DCs, sess.Dirty()).Target(ctx, cell)
				if err != nil {
					t.Fatal(err)
				}
				target, repaired, err := sess.Explainer().Target(ctx, cell)
				if err != nil {
					t.Fatal(err)
				}
				if repaired != wantRepaired || target != wantTarget {
					t.Fatalf("cell %v: cached Target = (%v, %v), want (%v, %v)",
						cell, target, repaired, wantTarget, wantRepaired)
				}
			}
		})
	}
}

// TestRepairTargetCacheRepresentationExact: a black box that changes a
// cell's numeric *kind* without changing its content (Float(5) -> Int(5),
// SameContent-equal) must see that change survive the cache replay:
// kind-sensitive consumers (hash-join keys) must not observe a different
// clean table on a hit than on a miss.
func TestRepairTargetCacheRepresentationExact(t *testing.T) {
	ctx := context.Background()
	dirty := table.MustFromStrings([]string{"A", "B"}, [][]string{
		{"5.0", "x"}, {"5", "y"},
	})
	if dirty.Get(0, 0) != table.Float(5) {
		t.Fatalf("fixture: got %#v, want Float kind", dirty.Get(0, 0))
	}
	kindFix := repair.Func{AlgName: "kind-fix", Fn: func(_ context.Context, _ []*dc.Constraint, d *table.Table) (*table.Table, error) {
		clean := d.Clone()
		clean.Set(0, 0, table.Int(5))          // kind-only change (SameContent)
		clean.Set(1, 1, table.String("fixed")) // content change
		return clean, nil
	}}
	cs, err := dc.ParseSet("C1: !(t1.A != t1.A)")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(kindFix, cs, dirty)
	if err != nil {
		t.Fatal(err)
	}
	first, firstDiffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replayed, replayedDiffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := sess.Engine().RepairTargets().Stats(); hits == 0 {
		t.Fatal("second Repair must hit the cache")
	}
	for i := 0; i < first.NumRows(); i++ {
		for j := 0; j < first.NumCols(); j++ {
			if first.Get(i, j) != replayed.Get(i, j) {
				t.Fatalf("cell (%d,%d): replay %#v vs black box %#v (representation must survive)",
					i, j, replayed.Get(i, j), first.Get(i, j))
			}
		}
	}
	if replayed.Get(0, 0) != (table.Int(5)) {
		t.Fatalf("kind-only repair lost in replay: %#v", replayed.Get(0, 0))
	}
	// The reported "repaired cells" diff stays the SameContent one: only
	// the content change appears, on both paths.
	sameDiffs(t, "reported diffs", replayedDiffs, firstDiffs)
	if len(firstDiffs) != 1 || firstDiffs[0].Ref != (table.CellRef{Row: 1, Col: 1}) {
		t.Fatalf("reported diffs must hold only the content change: %+v", firstDiffs)
	}
}

// TestRepairTargetCacheInvalidation: a SetCell bumps the generation (the
// cached diff must not be replayed against the edited table), and
// AddDC/RemoveDC re-key the descriptor; in both cases the next answer must
// match a fresh referenceExplainer run.
func TestRepairTargetCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	if _, _, err := sess.Explainer().Target(ctx, cell); err != nil {
		t.Fatal(err)
	}

	// Edit the cell of interest's row so the repair outcome changes.
	league := sess.Dirty().Schema().MustIndex("League")
	if err := sess.SetCell(table.CellRef{Row: cell.Row, Col: league}, table.String("Premier League")); err != nil {
		t.Fatal(err)
	}
	ref := referenceExplainer(alg, sess.DCs(), sess.Dirty())
	wantTarget, wantRepaired, err := ref.Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	target, repaired, err := sess.Explainer().Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != wantRepaired || target != wantTarget {
		t.Fatalf("after edit: cached Target = (%v, %v), want (%v, %v)", target, repaired, wantTarget, wantRepaired)
	}

	// Constraint edits re-key the repair descriptor without a generation
	// bump; the replay must follow the new constraint set.
	removed := ll.DCs[len(ll.DCs)-1].ID
	if err := sess.RemoveDC(removed); err != nil {
		t.Fatal(err)
	}
	ref2 := referenceExplainer(alg, sess.DCs(), sess.Dirty())
	_, wantDiffs, err := ref2.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, diffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameDiffs(t, "after RemoveDC", diffs, wantDiffs)
}

// TestCacheAwareSamplingGolden is tentpole (c)'s bit-identity contract:
// null-policy sampled explanations (SampleAll, TopK, group sampling) with
// the session's shared coalition cache produce exactly the referenceExplainer
// estimates — warm or cold, Workers=1 or Workers=N.
func TestCacheAwareSamplingGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	opts := CellExplainOptions{Samples: 48, Seed: 11, RestrictToRelevant: true}

	bare := referenceExplainer(alg, ll.DCs, ll.Dirty)
	want, err := bare.ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		sess, err := NewSessionWith(alg, ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		wopts := opts
		wopts.Workers = workers
		// Cold cache.
		got, err := sess.Explainer().ExplainCells(ctx, cell, wopts)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, "cold cached ExplainCells", got, want)
		// Warm cache: identical permutations revisit memoized coalitions.
		hitsBefore, _ := sess.Engine().CacheStats()
		got, err = sess.Explainer().ExplainCells(ctx, cell, wopts)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, "warm cached ExplainCells", got, want)
		hitsAfter, missesAfter := sess.Engine().CacheStats()
		if hitsAfter <= hitsBefore {
			t.Fatalf("workers=%d: repeat sampled explain must hit the shared cache (hits %d -> %d, misses %d)",
				workers, hitsBefore, hitsAfter, missesAfter)
		}
	}
}

// TestCacheAwareSamplingTopKAndGroupsGolden extends the bit-identity
// contract to the TopK racing loop and the sampled group walk.
func TestCacheAwareSamplingTopKAndGroupsGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	opts := CellExplainOptions{Samples: 64, Seed: 5, RestrictToRelevant: true}

	// Every reference call gets a fresh reference, so no reference answer
	// reuses coalition values or a Target another reference call stored.
	fresh := func() *Explainer { return referenceExplainer(alg, ll.DCs, ll.Dirty) }
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}

	wantTop, wantSep, err := fresh().ExplainCellsTopK(ctx, cell, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, gotSep, err := sess.Explainer().ExplainCellsTopK(ctx, cell, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotSep != wantSep {
		t.Fatalf("TopK separation: %v vs %v", gotSep, wantSep)
	}
	sameReports(t, "cached TopK", gotTop, wantTop)

	groupOpts := CellExplainOptions{Samples: 32, Seed: 3}
	groups := fresh().RowGroups(cell)
	wantG, err := fresh().ExplainCellGroupsSampled(ctx, cell, groups, groupOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := sess.Explainer().ExplainCellGroupsSampled(ctx, cell, groups, groupOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cached sampled groups", gotG, wantG)

	// The exact group path shares the same descriptor space: running it
	// after the sampled path must reuse coalition values (strictly more
	// hits), and stay bit-identical to the reference exact report.
	hitsBefore, _ := sess.Engine().CacheStats()
	wantExact, err := fresh().ExplainCellGroups(ctx, cell, groups[:6])
	if err != nil {
		t.Fatal(err)
	}
	gotExact, err := sess.Explainer().ExplainCellGroups(ctx, cell, groups[:6])
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cached exact groups", gotExact, wantExact)
	if hitsAfter, _ := sess.Engine().CacheStats(); hitsAfter < hitsBefore {
		t.Fatalf("hits went backwards: %d -> %d", hitsBefore, hitsAfter)
	}
}

// TestCacheAwareSamplingEditInvalidation: estimates after a session edit
// must match a fresh referenceExplainer on the edited table — no stale
// coalition value may survive the generation bump into the sampled paths.
func TestCacheAwareSamplingEditInvalidation(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	opts := CellExplainOptions{Samples: 40, Seed: 17, RestrictToRelevant: true}

	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Explainer().ExplainCells(ctx, cell, opts); err != nil {
		t.Fatal(err)
	}

	city := sess.Dirty().Schema().MustIndex("City")
	if err := sess.SetCell(table.CellRef{Row: 2, Col: city}, table.String("Sevilla")); err != nil {
		t.Fatal(err)
	}

	ref := referenceExplainer(alg, sess.DCs(), sess.Dirty())
	want, err := ref.ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Explainer().ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "post-edit cached ExplainCells", got, want)
}

// TestSampledExactCellRosterSharing: the exact cell enumeration and the
// sampled null-policy path over the same roster intern one descriptor, so
// an exact report after a sampled one reuses its coalition values.
func TestSampledExactCellRosterSharing(t *testing.T) {
	ctx := context.Background()
	// Tiny instance so the exact path is feasible.
	grid := [][]string{
		{"x", "1", "a"},
		{"x", "2", "a"},
		{"x", "1", "a"},
	}
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	alg := repair.NewRuleRepair(cs)
	sess, err := NewSession(alg, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}

	if _, err := sess.Explainer().ExplainCells(ctx, cell, CellExplainOptions{
		Samples: 64, Seed: 2, RestrictToRelevant: true,
	}); err != nil {
		t.Fatal(err)
	}
	hits1, _ := sess.Engine().CacheStats()
	exact, err := sess.Explainer().ExplainCellsExact(ctx, cell, true)
	if err != nil {
		t.Fatal(err)
	}
	hits2, _ := sess.Engine().CacheStats()
	if hits2 <= hits1 {
		t.Fatalf("exact enumeration after sampling must reuse the roster's coalition values (hits %d -> %d)", hits1, hits2)
	}

	bare := referenceExplainer(alg, cs, tbl)
	want, err := bare.ExplainCellsExact(ctx, cell, true)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "exact after sampled", exact, want)
}

// TestSampledWorkerDeterminismWithSharedCache: the Workers=1 ≡ Workers=N
// fan-out guarantee must survive cache participation, including a
// half-warm cache (one session explained already, the other has not).
func TestSampledWorkerDeterminismWithSharedCache(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest

	var reports []*Report
	for _, workers := range []int{1, 2, 7} {
		sess, err := NewSessionWith(alg, ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		opts := CellExplainOptions{Samples: 56, Seed: 23, Workers: workers, RestrictToRelevant: true}
		// Warm the cache with a *different* report kind first, so the
		// sampled run sees a partially-populated shared cache.
		if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
			t.Fatal(err)
		}
		report, err := sess.Explainer().ExplainCells(ctx, cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, report)
	}
	for i := 1; i < len(reports); i++ {
		sameReports(t, "worker determinism", reports[i], reports[0])
	}
}

// TestCacheAwareSamplingStochasticUnbound: ReplaceFromColumn games must
// not enroll in the shared cache (their values are random realizations),
// and their estimates must stay bit-identical to the referenceExplainer run.
func TestCacheAwareSamplingStochasticUnbound(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	opts := CellExplainOptions{Samples: 24, Seed: 9, Policy: ReplaceFromColumn, RestrictToRelevant: true}

	bare := referenceExplainer(alg, ll.DCs, ll.Dirty)
	want, err := bare.ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Explainer().ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "stochastic policy with engine", got, want)

	// Direct check on the game: binding a stochastic game is a no-op.
	target, _, err := sess.Explainer().Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	game := sess.Explainer().NewCellGame(cell, target, ReplaceFromColumn)
	game.BindSharedCache()
	if game.shared != nil {
		t.Fatal("ReplaceFromColumn game must not bind to the shared cache")
	}
	// And a walk-driven SampleAll on the stochastic game must match the
	// clone reference exactly (RNG consumption unchanged by the binding
	// code path).
	ests, err := shapley.SampleAll(ctx, game, shapley.Options{Samples: 16, Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shapley.SampleAll(ctx, game.CloneEval(), shapley.Options{Samples: 16, Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ests {
		if ests[i] != ref[i] {
			t.Fatalf("estimate %d: %+v vs %+v", i, ests[i], ref[i])
		}
	}
}
