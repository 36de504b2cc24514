package repair

import (
	"context"
	"errors"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/table"
)

func TestAlgorithm1RepairsFigure2(t *testing.T) {
	ll := data.NewLaLiga()
	alg := NewAlgorithm1()
	clean, err := alg.Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Equal(ll.Clean) {
		t.Fatalf("Algorithm 1 output differs from Figure 2b:\ngot:\n%s\nwant:\n%s", clean, ll.Clean)
	}
	// Repaired cells are exactly the blue cells.
	diffs, err := table.Diff(ll.Dirty, clean)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"t4[Country]": true, "t5[City]": true, "t5[Country]": true}
	if len(diffs) != len(want) {
		t.Fatalf("repaired %d cells, want %d: %s", len(diffs), len(want), table.FormatDiffs(ll.Dirty, diffs))
	}
	for _, d := range diffs {
		if !want[ll.Dirty.RefName(d.Ref)] {
			t.Errorf("unexpected repair at %s", ll.Dirty.RefName(d.Ref))
		}
	}
}

func TestAlgorithm1DoesNotMutateInput(t *testing.T) {
	ll := data.NewLaLiga()
	snapshot := ll.Dirty.Clone()
	if _, err := NewAlgorithm1().Repair(context.Background(), ll.DCs, ll.Dirty); err != nil {
		t.Fatal(err)
	}
	if !ll.Dirty.Equal(snapshot) {
		t.Fatal("Repair mutated its input table")
	}
}

func TestAlgorithm1Example22(t *testing.T) {
	// Example 2.2: Alg|t5[City]({C1,C2,C3}, T) = 1, Alg|t5[City]({C2,C3}, T) = 0.
	ll := data.NewLaLiga()
	alg := NewAlgorithm1()
	cell, err := ll.Dirty.ParseRefName("t5[City]")
	if err != nil {
		t.Fatal(err)
	}
	target := ll.Clean.GetRef(cell) // "Madrid"
	ctx := context.Background()

	with, err := CellRepaired(ctx, alg, dc.Without(ll.DCs, "C4"), ll.Dirty, cell, target, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if with != 1 {
		t.Errorf("Alg|t5[City]({C1,C2,C3}) = %v, want 1", with)
	}
	without, err := CellRepaired(ctx, alg, dc.Without(dc.Without(ll.DCs, "C4"), "C1"), ll.Dirty, cell, target, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if without != 0 {
		t.Errorf("Alg|t5[City]({C2,C3}) = %v, want 0", without)
	}
}

// repairsCountry reports whether the subset S of the La Liga DCs leads
// Algorithm 1 to repair t5[Country] to "Spain".
func repairsCountry(t *testing.T, ids ...string) bool {
	t.Helper()
	ll := data.NewLaLiga()
	var subset []*dc.Constraint
	for _, id := range ids {
		c := dc.ByID(ll.DCs, id)
		if c == nil {
			t.Fatalf("no constraint %s", id)
		}
		subset = append(subset, c)
	}
	got, err := CellRepaired(context.Background(), NewAlgorithm1(), subset, ll.Dirty, ll.CellOfInterest, table.String("Spain"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got == 1
}

func TestAlgorithm1RepairingSubsets(t *testing.T) {
	// Example 2.3: t5[Country] is repaired exactly for subsets containing
	// C3 or containing both C1 and C2.
	cases := []struct {
		ids  []string
		want bool
	}{
		{nil, false},
		{[]string{"C1"}, false},
		{[]string{"C2"}, false},
		{[]string{"C3"}, true},
		{[]string{"C4"}, false},
		{[]string{"C1", "C2"}, true},
		{[]string{"C1", "C3"}, true},
		{[]string{"C1", "C4"}, false},
		{[]string{"C2", "C3"}, true},
		{[]string{"C2", "C4"}, false},
		{[]string{"C3", "C4"}, true},
		{[]string{"C1", "C2", "C3"}, true},
		{[]string{"C1", "C2", "C4"}, true},
		{[]string{"C1", "C3", "C4"}, true},
		{[]string{"C2", "C3", "C4"}, true},
		{[]string{"C1", "C2", "C3", "C4"}, true},
	}
	for _, tc := range cases {
		if got := repairsCountry(t, tc.ids...); got != tc.want {
			t.Errorf("subset %v: repaired = %v, want %v", tc.ids, got, tc.want)
		}
	}
}

func TestAlgorithm1EmptyConstraints(t *testing.T) {
	ll := data.NewLaLiga()
	clean, err := NewAlgorithm1().Repair(context.Background(), nil, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Equal(ll.Dirty) {
		t.Error("no constraints must mean no repairs")
	}
}

func TestAlgorithm1NullMaskedTable(t *testing.T) {
	// Masked tables (cells nulled out, as in the cell-Shapley game) must
	// never error and never invent violations from nulls.
	ll := data.NewLaLiga()
	masked := ll.Dirty.Clone()
	for _, ref := range masked.Cells() {
		if ref.Row%2 == 0 {
			masked.SetRef(ref, table.Null())
		}
	}
	clean, err := NewAlgorithm1().Repair(context.Background(), ll.DCs, masked)
	if err != nil {
		t.Fatal(err)
	}
	if clean.NumRows() != masked.NumRows() {
		t.Error("shape must be preserved")
	}
}

func TestAlgorithm1ContextCancellation(t *testing.T) {
	ll := data.NewLaLiga()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewAlgorithm1().Repair(ctx, ll.DCs, ll.Dirty); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAlgorithm1TerminatesOnOscillation(t *testing.T) {
	// A pathological rule set that keeps toggling values must stop at
	// MaxPasses rather than hang.
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"x", "1"}, {"x", "2"}})
	cs := []*dc.Constraint{dc.MustParse("CX: !(t1.A = t2.A & t1.B != t2.B)")}
	alg := &RuleRepair{AlgName: "osc", Rules: []Rule{{ConstraintID: "CX", Attr: "B", Kind: FixMode}}, MaxPasses: 3}
	if _, err := alg.Repair(context.Background(), cs, tbl); err != nil {
		t.Fatal(err)
	}
}

func TestRuleRepairUnknownAttr(t *testing.T) {
	tbl := table.MustFromStrings([]string{"A"}, [][]string{{"x"}, {"y"}})
	cs := []*dc.Constraint{dc.MustParse("CX: !(t1.A != t2.A)")}
	alg := &RuleRepair{Rules: []Rule{{ConstraintID: "CX", Attr: "Nope", Kind: FixMode}}}
	if _, err := alg.Repair(context.Background(), cs, tbl); err == nil {
		t.Error("unknown rule attribute must error")
	}
	alg2 := &RuleRepair{Rules: []Rule{{ConstraintID: "CX", Attr: "A", Kind: FixConditionalMode, Given: "Nope"}}}
	if _, err := alg2.Repair(context.Background(), cs, tbl); err == nil {
		t.Error("unknown given attribute must error")
	}
}

func TestDeriveRules(t *testing.T) {
	cs, err := dc.ParseSet(`
C1: !(t1.A = t2.A & t1.B != t2.B)
C2: !(t1.X != t2.X)
C3: !(t1.Y = t2.Y)
`)
	if err != nil {
		t.Fatal(err)
	}
	rules := DeriveRules(cs)
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].Kind != FixConditionalMode || rules[0].Attr != "B" || rules[0].Given != "A" {
		t.Errorf("FD rule = %v", rules[0])
	}
	if rules[1].Kind != FixMode || rules[1].Attr != "X" {
		t.Errorf("neq rule = %v", rules[1])
	}
	if rules[2].Kind != FixMode || rules[2].Attr != "Y" {
		t.Errorf("fallback rule = %v", rules[2])
	}
}

func TestDeriveRulesFixesPaperTable(t *testing.T) {
	// The generic rule deriver, given the paper's DCs, must still repair
	// the cell of interest (C2's derived rule conditions Country on City,
	// C3's conditions Country on League — different fixes, same outcome).
	ll := data.NewLaLiga()
	alg := NewRuleRepair(ll.DCs)
	got, err := CellRepaired(context.Background(), alg, ll.DCs, ll.Dirty, ll.CellOfInterest, table.String("Spain"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Error("derived rules must repair t5[Country] to Spain")
	}
}

func TestRuleString(t *testing.T) {
	r1 := Rule{ConstraintID: "C1", Attr: "City", Kind: FixMode}
	if r1.String() != "on C1: City := argmax P[City]" {
		t.Errorf("String = %q", r1.String())
	}
	r2 := Rule{ConstraintID: "C2", Attr: "Country", Kind: FixConditionalMode, Given: "City"}
	if r2.String() != "on C2: Country := argmax P[Country | City]" {
		t.Errorf("String = %q", r2.String())
	}
}

func TestFuncAdapter(t *testing.T) {
	wantErr := errors.New("boom")
	f := Func{AlgName: "failing", Fn: func(context.Context, []*dc.Constraint, *table.Table) (*table.Table, error) {
		return nil, wantErr
	}}
	if f.Name() != "failing" {
		t.Error("Name")
	}
	ll := data.NewLaLiga()
	if _, err := CellRepaired(context.Background(), f, ll.DCs, ll.Dirty, ll.CellOfInterest, table.String("Spain"), nil, nil); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestCellRepairedShapeCheck(t *testing.T) {
	ll := data.NewLaLiga()
	bad := Func{AlgName: "shape-changer", Fn: func(_ context.Context, _ []*dc.Constraint, d *table.Table) (*table.Table, error) {
		return table.New(d.Schema()), nil // drops all rows
	}}
	if _, err := CellRepaired(context.Background(), bad, ll.DCs, ll.Dirty, ll.CellOfInterest, table.String("Spain"), nil, nil); err == nil {
		t.Error("shape change must be rejected")
	}
}
