package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

func newPaperExplainer(t *testing.T) (*Explainer, *data.LaLiga) {
	t.Helper()
	ll := data.NewLaLiga()
	e, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	return e, ll
}

func TestNewExplainerValidation(t *testing.T) {
	ll := data.NewLaLiga()
	if _, err := NewExplainer(nil, ll.DCs, ll.Dirty); err == nil {
		t.Error("nil algorithm must be rejected")
	}
	if _, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, nil); err == nil {
		t.Error("nil table must be rejected")
	}
	bad := []*dc.Constraint{dc.MustParse("!(t1.Nope = t2.Nope)")}
	if _, err := NewExplainer(repair.NewAlgorithm1(), bad, ll.Dirty); err == nil {
		t.Error("invalid constraint set must be rejected")
	}
}

func TestExplainerRepairMatchesFigure2(t *testing.T) {
	e, ll := newPaperExplainer(t)
	clean, diffs, err := e.Repair(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Equal(ll.Clean) {
		t.Fatalf("repair differs from Figure 2b:\n%s", clean)
	}
	if len(diffs) != 3 {
		t.Fatalf("repaired cells = %d, want 3", len(diffs))
	}
}

// TestExplainerRepairFuncMatchesUnwrapped: Algorithm1 wrapped in
// repair.Func takes repair.Run's Algorithm-only branch (plain Repair, no
// pool, no plan); the clean table and the repaired-cells diff must be
// identical to the unwrapped box's planned run.
func TestExplainerRepairFuncMatchesUnwrapped(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	wrapped := repair.Func{AlgName: alg.Name(), Fn: alg.Repair}
	want, err := NewExplainer(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewExplainer(wrapped, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	wantClean, wantDiffs, err := want.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotClean, gotDiffs, err := got.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wantClean.NumRows(); i++ {
		for j := 0; j < wantClean.NumCols(); j++ {
			if gotClean.Get(i, j) != wantClean.Get(i, j) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, gotClean.Get(i, j), wantClean.Get(i, j))
			}
		}
	}
	if len(gotDiffs) != len(wantDiffs) || len(wantDiffs) == 0 {
		t.Fatalf("%d diffs vs %d", len(gotDiffs), len(wantDiffs))
	}
	for i := range wantDiffs {
		if gotDiffs[i] != wantDiffs[i] {
			t.Fatalf("diff %d: %v vs %v", i, gotDiffs[i], wantDiffs[i])
		}
	}
}

func TestTarget(t *testing.T) {
	e, ll := newPaperExplainer(t)
	target, repaired, err := e.Target(context.Background(), ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired || !target.Equal(table.String("Spain")) {
		t.Fatalf("target = %v, repaired = %v", target, repaired)
	}
	// An untouched cell reports repaired = false.
	_, repaired, err = e.Target(context.Background(), table.CellRef{Row: 0, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Error("t1[Team] must not be repaired")
	}
}

func TestExplainConstraintsFigure1(t *testing.T) {
	// The headline result: Shapley values of Figure 1 — C1 = C2 = 1/6,
	// C3 = 2/3, C4 = 0, ranked C3 first.
	e, ll := newPaperExplainer(t)
	report, err := e.ExplainConstraints(context.Background(), ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"C1": 1.0 / 6, "C2": 1.0 / 6, "C3": 2.0 / 3, "C4": 0}
	for id, w := range want {
		entry, ok := report.Find(id)
		if !ok {
			t.Fatalf("no entry for %s", id)
		}
		if math.Abs(entry.Shapley-w) > 1e-12 {
			t.Errorf("Shap(%s) = %v, want %v", id, entry.Shapley, w)
		}
	}
	top, _ := report.Top()
	if top.Name != "C3" {
		t.Errorf("top constraint = %s, want C3", top.Name)
	}
	if report.Kind != "constraints" || report.Cell != "t5[Country]" || report.Target != "Spain" {
		t.Errorf("report metadata: %+v", report)
	}
	// Efficiency: values sum to v(N) − v(∅) = 1.
	sum := 0.0
	for _, e := range report.Entries {
		sum += e.Shapley
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σ Shapley = %v, want 1", sum)
	}
}

func TestExplainConstraintsUnrepairedCell(t *testing.T) {
	e, _ := newPaperExplainer(t)
	if _, err := e.ExplainConstraints(context.Background(), table.CellRef{Row: 0, Col: 0}); err == nil {
		t.Error("explaining an unrepaired cell must error")
	}
}

func TestExplainCellsExample24(t *testing.T) {
	// Example 2.4's qualitative claims under the formal (null-mask) game:
	// t5[League] has the highest Shapley value among all cells, and
	// t1[Place] has Shapley value 0.
	e, ll := newPaperExplainer(t)
	report, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{
		Samples: 1500,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The cell of interest is pinned, so 35 of the 36 cells are players.
	if len(report.Entries) != ll.Dirty.NumCells()-1 {
		t.Fatalf("entries = %d, want %d", len(report.Entries), ll.Dirty.NumCells()-1)
	}
	if _, ok := report.Find("t5[Country]"); ok {
		t.Error("the pinned cell of interest must not appear as a player")
	}
	top, _ := report.Top()
	if top.Name != "t5[League]" {
		t.Errorf("top cell = %s (%.4f), want t5[League]\n%s", top.Name, top.Shapley, report)
	}
	place, ok := report.Find("t1[Place]")
	if !ok {
		t.Fatal("t1[Place] missing")
	}
	if place.Shapley != 0 {
		t.Errorf("Shap(t1[Place]) = %v, want exactly 0 (dummy player)", place.Shapley)
	}
	// Example 2.4 also argues t5[League] outranks t6[City].
	city, _ := report.Find("t6[City]")
	if city.Shapley >= top.Shapley {
		t.Errorf("t6[City] (%.4f) must rank below t5[League] (%.4f)", city.Shapley, top.Shapley)
	}
}

func TestExplainCellsReplaceFromColumn(t *testing.T) {
	// Example 2.5's replacement policy. Note an instructive divergence
	// from the null policy: the League column is constant ("La Liga" in
	// every row), so an absent t5[League] is always replaced by the same
	// value and the cell becomes an exact dummy under this policy. The
	// Country cells carry the signal instead.
	e, ll := newPaperExplainer(t)
	report, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{
		Samples: 2000,
		Seed:    7,
		Policy:  ReplaceFromColumn,
	})
	if err != nil {
		t.Fatal(err)
	}
	top, _ := report.Top()
	if !strings.Contains(top.Name, "[Country]") {
		t.Errorf("top cell = %s (%.4f), want a Country cell\n%s", top.Name, top.Shapley, report)
	}
	league, _ := report.Find("t5[League]")
	if math.Abs(league.Shapley) > 3*league.CI95+1e-9 {
		t.Errorf("t5[League] must be a dummy under column replacement, got %.4f ± %.4f", league.Shapley, league.CI95)
	}
	place, _ := report.Find("t1[Place]")
	if math.Abs(place.Shapley) > 3*place.CI95+1e-9 {
		t.Errorf("t1[Place] must stay irrelevant, got %.4f ± %.4f", place.Shapley, place.CI95)
	}
}

func TestExplainCellsRestrictedMatchesFull(t *testing.T) {
	// Restricting players to RelevantCells must not change the ranking of
	// the cells kept (dropped cells are dummies for the rule repairer).
	// C1..C4 together mention every column, so restriction only prunes
	// under a narrower constraint set: use C1..C3 (Year and Place columns
	// drop out).
	ll := data.NewLaLiga()
	e, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs[:3], ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{Samples: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{Samples: 2000, Seed: 11, RestrictToRelevant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted.Entries) >= len(full.Entries) {
		t.Fatalf("restriction did not shrink players: %d vs %d", len(restricted.Entries), len(full.Entries))
	}
	fullTop, _ := full.Top()
	resTop, _ := restricted.Top()
	if fullTop.Name != resTop.Name {
		t.Errorf("top differs: full %s vs restricted %s", fullTop.Name, resTop.Name)
	}
	for _, entry := range restricted.Entries {
		if fe, ok := full.Find(entry.Name); !ok {
			t.Errorf("restricted entry %s missing from full report", entry.Name)
		} else if math.Abs(fe.Shapley-entry.Shapley) > 0.15 {
			t.Errorf("%s: restricted %.3f vs full %.3f", entry.Name, entry.Shapley, fe.Shapley)
		}
	}
}

func TestRelevantCells(t *testing.T) {
	e, ll := newPaperExplainer(t)
	cells := e.RelevantCells(ll.CellOfInterest)
	// Columns mentioned by C1..C4: all six; relevant = all cells except
	// the pinned cell of interest.
	if len(cells) != 35 {
		t.Fatalf("relevant = %d, want 35", len(cells))
	}
	narrow, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs[:2], ll.Dirty) // C1, C2: Team, City, Country
	if err != nil {
		t.Fatal(err)
	}
	cells = narrow.RelevantCells(ll.CellOfInterest)
	// 3 columns × 6 rows = 18, plus t5's other 3 cells = 21, minus the
	// pinned t5[Country] = 20.
	if len(cells) != 20 {
		t.Fatalf("relevant = %d, want 20", len(cells))
	}
	for _, ref := range cells {
		if ref == ll.CellOfInterest {
			t.Fatal("cell of interest must be excluded")
		}
	}
}

func TestCellGameValueRequiresNullPolicy(t *testing.T) {
	e, ll := newPaperExplainer(t)
	g := e.NewCellGame(ll.CellOfInterest, table.String("Spain"), ReplaceFromColumn)
	if _, err := g.Value(context.Background(), make([]bool, g.NumPlayers())); err == nil {
		t.Error("Value with ReplaceFromColumn must error")
	}
	if _, err := g.SampleValue(context.Background(), make([]bool, g.NumPlayers()), nil); err == nil {
		t.Error("SampleValue with nil rng under ReplaceFromColumn must error")
	}
}

func TestCellGameFullCoalitionIsRepair(t *testing.T) {
	e, ll := newPaperExplainer(t)
	g := e.NewCellGame(ll.CellOfInterest, table.String("Spain"), ReplaceWithNull)
	full := make([]bool, g.NumPlayers())
	for i := range full {
		full[i] = true
	}
	v, err := g.Value(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("v(full) = %v, want 1", v)
	}
	empty := make([]bool, g.NumPlayers())
	v, err = g.Value(context.Background(), empty)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("v(∅) = %v, want 0 (all-null table repairs nothing)", v)
	}
}

func TestConstraintGameMatchesCellRepaired(t *testing.T) {
	e, ll := newPaperExplainer(t)
	g := e.NewConstraintGame(ll.CellOfInterest, table.String("Spain"))
	if g.NumPlayers() != 4 {
		t.Fatalf("players = %d", g.NumPlayers())
	}
	// {C3} alone repairs.
	v, err := g.Value(context.Background(), []bool{false, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Error("v({C3}) must be 1")
	}
	// {C1} alone does not.
	v, _ = g.Value(context.Background(), []bool{true, false, false, false})
	if v != 0 {
		t.Error("v({C1}) must be 0")
	}
}

func TestExplainPropagatesAlgorithmError(t *testing.T) {
	ll := data.NewLaLiga()
	boom := errors.New("boom")
	calls := 0
	flaky := repair.Func{AlgName: "flaky", Fn: func(ctx context.Context, cs []*dc.Constraint, d *table.Table) (*table.Table, error) {
		calls++
		if calls > 1 {
			return nil, boom
		}
		return repair.NewAlgorithm1().Repair(ctx, cs, d)
	}}
	e, err := NewExplainer(flaky, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExplainConstraints(context.Background(), ll.CellOfInterest); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestExplainContextCancel(t *testing.T) {
	e, ll := newPaperExplainer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExplainConstraints(ctx, ll.CellOfInterest); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.ExplainCells(ctx, ll.CellOfInterest, CellExplainOptions{Samples: 10}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestBlackBoxAgnostic(t *testing.T) {
	// E12: the identical explainer code must produce explanations for
	// every repairer that repairs the cell of interest, with no
	// algorithm-specific branches.
	ll := data.NewLaLiga()
	for _, alg := range repair.All(1) {
		t.Run(alg.Name(), func(t *testing.T) {
			e, err := NewExplainer(alg, ll.DCs, ll.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			_, repaired, err := e.Target(context.Background(), ll.CellOfInterest)
			if err != nil {
				t.Fatal(err)
			}
			if !repaired {
				t.Skipf("%s does not repair t5[Country]; nothing to explain", alg.Name())
			}
			report, err := e.ExplainConstraints(context.Background(), ll.CellOfInterest)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, entry := range report.Entries {
				sum += entry.Shapley
			}
			// Efficiency holds for every black box: v(C) = 1, v(∅) = 0
			// when the full set repairs and no constraints means no repair.
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("Σ Shapley = %v, want 1", sum)
			}
			cells, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{Samples: 200, Seed: 3, RestrictToRelevant: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(cells.Entries) == 0 {
				t.Error("no cell entries")
			}
		})
	}
}

func TestExactCellShapleyValidatesSampler(t *testing.T) {
	// E6 ground truth: on a tiny table the exact cell Shapley (null
	// policy) is enumerable; the sampler must converge to it.
	dirty := table.MustFromStrings([]string{"A", "B"}, [][]string{
		{"x", "1"},
		{"x", "2"},
		{"x", "1"},
	})
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	alg := repair.NewRuleRepair(cs)
	e, err := NewExplainer(alg, cs, dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1} // t2[B] = 2 -> 1
	exact, err := e.ExplainCellsExact(context.Background(), cell, false)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := e.ExplainCells(context.Background(), cell, CellExplainOptions{Samples: 30000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exact.Entries {
		got, ok := sampled.Find(ex.Name)
		if !ok {
			t.Fatalf("sampled report missing %s", ex.Name)
		}
		if math.Abs(got.Shapley-ex.Shapley) > 0.03 {
			t.Errorf("%s: sampled %.4f vs exact %.4f", ex.Name, got.Shapley, ex.Shapley)
		}
	}
	// Efficiency on the exact report.
	sum := 0.0
	for _, entry := range exact.Entries {
		sum += entry.Shapley
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("exact Σ = %v, want 1", sum)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Kind: "constraints", Cell: "t5[Country]", Target: "Spain", Algorithm: "algorithm1",
		Entries: []Entry{{Name: "C3", Shapley: 2.0 / 3}, {Name: "C1", Shapley: 1.0 / 6, CI95: 0.01, Samples: 100}}}
	s := r.String()
	for _, want := range []string{"C3", "+0.6667", "t5[Country]", "n=100"} {
		if !contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
	empty := &Report{}
	if _, ok := empty.Top(); ok {
		t.Error("empty report has no top")
	}
	if _, ok := r.Find("missing"); ok {
		t.Error("Find(missing)")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
