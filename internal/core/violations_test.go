package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dc"
	"repro/internal/table"
)

// assertSessionViolations compares Session.Violations (incrementally
// maintained) against the naive interpreted Violations of every
// constraint, concatenated in constraint order.
func assertSessionViolations(t *testing.T, label string, s *Session) {
	t.Helper()
	got, err := s.Violations()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var want []dc.Violation
	for _, c := range s.DCs() {
		vs, err := c.Violations(s.Dirty())
		if err != nil {
			t.Fatalf("%s: rescan: %v", label, err)
		}
		want = append(want, vs...)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: live %d violations, rescan %d\nlive: %v\nrescan: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Row1 != want[i].Row1 || got[i].Row2 != want[i].Row2 ||
			got[i].Constraint.ID != want[i].Constraint.ID {
			t.Fatalf("%s: violation %d: live %v, rescan %v", label, i, got[i], want[i])
		}
	}
}

// TestSessionViolationsLive drives the iterative loop the live set exists
// for: inspect violations, edit a cell, inspect again — the maintained
// lists must track every edit exactly, including edits that fix and
// re-introduce violations.
func TestSessionViolationsLive(t *testing.T) {
	s := newSession(t)
	assertSessionViolations(t, "initial", s)
	if ok, err := s.Consistent(); err != nil || ok {
		t.Fatalf("the La Liga table must start inconsistent (ok=%v err=%v)", ok, err)
	}

	rng := rand.New(rand.NewSource(61))
	dirty := s.Dirty()
	values := []table.Value{
		table.String("Madrid"), table.String("Spain"), table.String("España"),
		table.String("Barcelona"), table.Null(), table.Int(2019),
	}
	for step := 0; step < 60; step++ {
		ref := table.CellRef{Row: rng.Intn(dirty.NumRows()), Col: rng.Intn(dirty.NumCols())}
		if err := s.SetCell(ref, values[rng.Intn(len(values))]); err != nil {
			t.Fatal(err)
		}
		assertSessionViolations(t, fmt.Sprintf("step %d", step), s)
	}

	// Constraint edits change the queried set; the live set must follow.
	if err := s.RemoveDC("C1"); err != nil {
		t.Fatal(err)
	}
	assertSessionViolations(t, "after RemoveDC", s)
	if err := s.AddDC("C9: !(t1.City = t2.City & t1.Country != t2.Country)"); err != nil {
		t.Fatal(err)
	}
	assertSessionViolations(t, "after AddDC", s)
}
