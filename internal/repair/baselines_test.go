package repair

import (
	"context"
	"errors"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/table"
)

func TestGreedyRepairsLaLiga(t *testing.T) {
	ll := data.NewLaLiga()
	clean, err := NewGreedy().Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := dc.Consistent(ll.DCs, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		var vs []dc.Violation
		for _, c := range ll.DCs {
			cv, _ := c.Violations(clean)
			vs = append(vs, cv...)
		}
		t.Fatalf("greedy left violations: %v\n%s", vs, clean)
	}
	if got := clean.GetRef(ll.CellOfInterest); !got.Equal(table.String("Spain")) {
		t.Errorf("t5[Country] = %v, want Spain", got)
	}
}

func TestGreedyCleanInputIsFixpoint(t *testing.T) {
	ll := data.NewLaLiga()
	out, err := NewGreedy().Repair(context.Background(), ll.DCs, ll.Clean)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(ll.Clean) {
		t.Fatal("consistent input must pass through unchanged")
	}
}

func TestGreedyTerminatesWhenStuck(t *testing.T) {
	// Two rows contradict on B with no third value available that reduces
	// violations to zero for both sides at once; greedy must terminate.
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"x", "1"}, {"x", "2"}})
	cs := []*dc.Constraint{dc.MustParse("CX: !(t1.A = t2.A & t1.B != t2.B)")}
	out, err := NewGreedy().Repair(context.Background(), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := dc.Consistent(cs, out)
	if !ok {
		t.Error("greedy should resolve the simple FD conflict")
	}
}

func TestGreedyMaxStepsBounds(t *testing.T) {
	ll := data.NewLaLiga()
	g := &Greedy{MaxSteps: 1}
	if _, err := g.Repair(context.Background(), ll.DCs, ll.Dirty); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyContextCancel(t *testing.T) {
	ll := data.NewLaLiga()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewGreedy().Repair(ctx, ll.DCs, ll.Dirty); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestFDChaseRepairsFDViolations(t *testing.T) {
	ll := data.NewLaLiga()
	out, err := NewFDChase().Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	// C1 (Team→City), C2 (City→Country), C3 (League→Country) are
	// FD-shaped; C4 is not and is ignored. The chase must fix the cell of
	// interest via majority voting in the La Liga group.
	if got := out.GetRef(ll.CellOfInterest); !got.Equal(table.String("Spain")) {
		t.Errorf("t5[Country] = %v, want Spain", got)
	}
	if got := out.GetByName(4, "City"); !got.Equal(table.String("Madrid")) {
		t.Errorf("t5[City] = %v, want Madrid", got)
	}
}

func TestFDChaseIgnoresNonFD(t *testing.T) {
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"x", "1"}, {"y", "1"}})
	// Genuinely non-FD-shaped constraints (ordering op, too many
	// predicates): chase must be a no-op even though the table "violates"
	// them.
	cs, err := dc.ParseSet(`
N1: !(t1.A < t2.A & t1.B = t2.B)
N2: !(t1.A != t2.A & t1.B = t2.B & t1.B != 99)
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewFDChase().Repair(context.Background(), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tbl) {
		t.Fatal("non-FD constraints must be ignored")
	}
}

func TestFDChaseRecognizesReversedFD(t *testing.T) {
	// ¬(A ≠ ∧ B =) is the FD B → A up to predicate order; the chase must
	// handle it.
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"x", "1"}, {"y", "1"}, {"x", "1"}})
	cs := []*dc.Constraint{dc.MustParse("R1: !(t1.A != t2.A & t1.B = t2.B)")}
	out, err := NewFDChase().Repair(context.Background(), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(1, 0).Equal(table.String("x")) {
		t.Fatalf("majority vote should force A=x:\n%s", out)
	}
}

func TestAsFD(t *testing.T) {
	schema := table.MustSchema(table.Column{Name: "A"}, table.Column{Name: "B"})
	cases := []struct {
		text string
		ok   bool
	}{
		{"!(t1.A = t2.A & t1.B != t2.B)", true},
		{"!(t1.B != t2.B & t1.A = t2.A)", true}, // predicate order free
		{"!(t1.A = t2.A)", false},
		{"!(t1.A = t2.A & t1.B < t2.B)", false},
		{"!(t1.A = t2.A & t1.B != t2.B & t1.A != t2.A)", false},
		{"!(t1.A = 'x' & t1.B != t2.B)", false},
	}
	for _, tc := range cases {
		d, ok := asFD(dc.MustParse(tc.text), schema)
		if ok != tc.ok {
			t.Errorf("asFD(%q) ok = %v, want %v", tc.text, ok, tc.ok)
		}
		if ok && (d.lhs != 0 || d.rhs != 1) {
			t.Errorf("asFD(%q) = %+v", tc.text, d)
		}
	}
}

func TestFDChaseCascades(t *testing.T) {
	// A→B then B→C: fixing B regroups the B→C chase; needs a second pass.
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, [][]string{
		{"k", "b1", "c1"},
		{"k", "b1", "c1"},
		{"k", "b2", "c2"}, // B out of line; once fixed to b1, C must follow to c1
	})
	cs, err := dc.ParseSet(`
F1: !(t1.A = t2.A & t1.B != t2.B)
F2: !(t1.B = t2.B & t1.C != t2.C)
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewFDChase().Repair(context.Background(), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Get(2, 1).Equal(table.String("b1")) || !out.Get(2, 2).Equal(table.String("c1")) {
		t.Fatalf("cascade failed:\n%s", out)
	}
	ok, _ := dc.Consistent(cs, out)
	if !ok {
		t.Error("chase must reach consistency")
	}
}

func TestFDChaseNullLHSSkipped(t *testing.T) {
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"", "1"}, {"", "2"}})
	cs := []*dc.Constraint{dc.MustParse("F1: !(t1.A = t2.A & t1.B != t2.B)")}
	out, err := NewFDChase().Repair(context.Background(), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tbl) {
		t.Fatal("null join keys must not group")
	}
}

func TestFDChaseContextCancel(t *testing.T) {
	ll := data.NewLaLiga()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewFDChase().Repair(ctx, ll.DCs, ll.Dirty); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestAllReturnsFourAlgorithms(t *testing.T) {
	algs := All(1)
	if len(algs) != 4 {
		t.Fatalf("All = %d algorithms", len(algs))
	}
	names := map[string]bool{}
	for _, a := range algs {
		if a.Name() == "" {
			t.Error("empty name")
		}
		if names[a.Name()] {
			t.Errorf("duplicate name %s", a.Name())
		}
		names[a.Name()] = true
	}
}

func TestAllAlgorithmsPreserveShapeAndInput(t *testing.T) {
	ll := data.NewLaLiga()
	for _, alg := range All(3) {
		snapshot := ll.Dirty.Clone()
		out, err := alg.Repair(context.Background(), ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if out.NumRows() != ll.Dirty.NumRows() || out.NumCols() != ll.Dirty.NumCols() {
			t.Errorf("%s changed the table shape", alg.Name())
		}
		if !ll.Dirty.Equal(snapshot) {
			t.Errorf("%s mutated its input", alg.Name())
		}
	}
}
