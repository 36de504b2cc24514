package plan

import (
	"slices"
	"testing"

	"repro/internal/dc"
	"repro/internal/table"
)

func soccerSchema(t *testing.T) *table.Schema {
	t.Helper()
	s, err := table.SchemaOf("Team", "City", "Country", "League", "Year")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCanonicalCols(t *testing.T) {
	if got := canonicalCols(nil); got != nil {
		t.Errorf("canonicalCols(nil) = %v", got)
	}
	if got := canonicalCols([]int{3, 1, 3, 0}); !slices.Equal(got, []int{0, 1, 3}) {
		t.Errorf("canonicalCols = %v, want [0 1 3]", got)
	}
	in := []int{2, 1}
	_ = canonicalCols(in)
	if !slices.Equal(in, []int{2, 1}) {
		t.Error("canonicalCols mutated its input")
	}
}

func TestShareScanCols(t *testing.T) {
	sets := [][]int{{0, 1}, {0}, {2}, {0, 1, 2, 3}}
	cases := []struct {
		cols, want []int
	}{
		// Proper subset one column smaller: adopt it.
		{[]int{0, 1, 2}, []int{0, 1}},
		// No subset within slack ({0} drops two columns): keep own set.
		{[]int{0, 2, 3}, []int{0, 2, 3}},
		// Exactly one column dropped, two candidates {0} and {2}: larger
		// wins is moot (same size), lexicographically smallest wins.
		{[]int{0, 2}, []int{0}},
		// A set equal to an existing one still adopts a qualifying proper
		// subset ({0} drops one of its two columns).
		{[]int{0, 1}, []int{0}},
		{nil, nil},
	}
	for _, tc := range cases {
		if got := shareScanCols(tc.cols, sets); !slices.Equal(got, tc.want) {
			t.Errorf("shareScanCols(%v) = %v, want %v", tc.cols, got, tc.want)
		}
	}
}

func TestOrderPreds(t *testing.T) {
	// Declaration order: cross-tuple ≠, cross-tuple =, single-side
	// constant =, order comparison. Expected execution order: constant =
	// (rank 1), cross-tuple = (rank 2), order (rank 5), ≠ (rank 8).
	c := dc.MustParse(`C1: !(t1.City != t2.City & t1.Team = t2.Team & t1.Country = "Spain" & t1.Year > t2.Year)`)
	got := orderPreds(c)
	want := []int{2, 1, 3, 0}
	if !slices.Equal(got, want) {
		t.Errorf("orderPreds = %v, want %v", got, want)
	}

	// Ties keep declaration order (stable sort).
	c2 := dc.MustParse("C2: !(t1.A = t2.A & t1.B = t2.B)")
	if got := orderPreds(c2); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("tie order = %v, want [0 1]", got)
	}
}

func TestPushdownPreds(t *testing.T) {
	c := dc.MustParse(`C1: !(t1.Team = t2.Team & t1.Country = "Spain" & t2.Year > 1990 & t1.City != t2.City)`)
	pre0, pre1 := pushdownPreds(c)
	if !slices.Equal(pre0, []int{1}) || !slices.Equal(pre1, []int{2}) {
		t.Errorf("pushdownPreds = %v / %v, want [1] / [2]", pre0, pre1)
	}

	// Single-tuple constraints never push down: their whole kernel already
	// runs once per row.
	st := dc.MustParse(`C2: !(t1.Country = "Spain" & t1.City != "Madrid")`)
	if pre0, pre1 := pushdownPreds(st); pre0 != nil || pre1 != nil {
		t.Errorf("single-tuple pushdown = %v / %v, want nil / nil", pre0, pre1)
	}
}

func TestCompileSharing(t *testing.T) {
	schema := soccerSchema(t)
	cs := []*dc.Constraint{
		dc.MustParse(`C1: !(t1.Team = t2.Team & t1.League = t2.League & t1.Country = "Spain" & t1.City != t2.City)`),
		dc.MustParse("C2: !(t1.Team = t2.Team & t1.Country != t2.Country)"),
		dc.MustParse(`C3: !(t1.League = t2.League & t1.Team = t2.Team & t2.Country = "Spain" & t1.Year != t2.Year)`),
		dc.MustParse("C4: !(t1.Team = t2.Team & t1.League = t2.League & t1.City != t2.City)"),
	}
	p := Compile(schema, cs)
	if p.PlanSchema() != schema {
		t.Fatal("PlanSchema does not round-trip")
	}
	ch1, ok := p.ConstraintPlan(cs[0])
	if !ok {
		t.Fatal("no choice for C1")
	}
	ch2, _ := p.ConstraintPlan(cs[1])
	ch3, _ := p.ConstraintPlan(cs[2])
	ch4, _ := p.ConstraintPlan(cs[3])
	// C1 {Team, League} has a pre-filter, so it adopts C2's subset {Team}
	// (one column smaller); C3's permuted spelling canonicalizes to C1's
	// set and does the same.
	if !slices.Equal(ch1.ScanCols, ch2.ScanCols) {
		t.Errorf("C1 scan %v does not share C2's %v", ch1.ScanCols, ch2.ScanCols)
	}
	if !slices.Equal(ch3.ScanCols, ch1.ScanCols) {
		t.Errorf("permuted C3 scan %v differs from C1's %v", ch3.ScanCols, ch1.ScanCols)
	}
	teamIdx := schema.MustIndex("Team")
	if !slices.Equal(ch1.ScanCols, []int{teamIdx}) {
		t.Errorf("shared scan cols = %v, want [%d] (Team)", ch1.ScanCols, teamIdx)
	}
	// C4 has the same join set but no pre-filter to bound the extra
	// candidates, so the cost rule keeps its exact partition.
	leagueIdx := schema.MustIndex("League")
	want4 := []int{teamIdx, leagueIdx}
	slices.Sort(want4)
	if !slices.Equal(ch4.ScanCols, want4) {
		t.Errorf("unfiltered C4 coarsened to %v, want exact %v", ch4.ScanCols, want4)
	}
}

func TestCompileUnresolvedConstraint(t *testing.T) {
	schema := soccerSchema(t)
	bogus := dc.MustParse("C1: !(t1.NoSuchCol = t2.NoSuchCol)")
	p := Compile(schema, []*dc.Constraint{bogus})
	ch, ok := p.ConstraintPlan(bogus)
	if !ok {
		t.Fatal("unresolved constraint has no choice entry")
	}
	if ch.ScanCols != nil {
		t.Errorf("unresolved constraint got scan cols %v", ch.ScanCols)
	}
}

func TestHints(t *testing.T) {
	p := Compile(soccerSchema(t), nil)
	if _, ok := p.PartitionHint("sig"); ok {
		t.Error("fresh plan has a partition hint")
	}
	p.RecordPartition("sig", 17)
	if n, ok := p.PartitionHint("sig"); !ok || n != 17 {
		t.Errorf("PartitionHint = %d, %v; want 17, true", n, ok)
	}
	c := dc.MustParse("C1: !(t1.Team = t2.Team)")
	p.RecordViolations(c, 9)
	if n, ok := p.ViolationHint(c); !ok || n != 9 {
		t.Errorf("ViolationHint = %d, %v; want 9, true", n, ok)
	}
	// The hint maps are bounded: overflowing resets rather than growing.
	for i := 0; i < maxHintEntries+1; i++ {
		p.RecordPartition(string(rune(i))+"x", i)
	}
	p.mu.Lock()
	n := len(p.parts)
	p.mu.Unlock()
	if n > maxHintEntries {
		t.Errorf("hint map grew to %d entries past the %d bound", n, maxHintEntries)
	}
}
