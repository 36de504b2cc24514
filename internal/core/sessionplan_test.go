package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/repair"
)

// TestSessionPlanLifecycle pins the session's plan ownership: a session
// compiles its plan at construction and installs a newly compiled plan on
// every constraint edit, so the plan can never go stale against its DC
// set. Every Explainer carries the current plan, and Violations derives
// its lists behind it: a derivation records the constraint's violation
// cardinality in the plan it ran on, and the first Violations call (after
// RemoveDC) derives every list, the one after AddDC the added
// constraint's.
func TestSessionPlanLifecycle(t *testing.T) {
	s := newSession(t)
	if s.plan == nil || s.Explainer().plan != dc.SetPlanner(s.plan) {
		t.Fatal("session has no compiled plan wired after construction")
	}
	check := func(label string, old *plan.Plan) {
		t.Helper()
		if s.plan == old {
			t.Fatalf("%s left the compiled plan stale", label)
		}
		if s.Explainer().plan != dc.SetPlanner(s.plan) {
			t.Fatalf("%s: Explainer not wired to the session plan", label)
		}
		if _, err := s.Violations(); err != nil {
			t.Fatal(err)
		}
		last := s.dcs[len(s.dcs)-1]
		if _, ok := s.plan.ViolationHint(last); !ok {
			t.Fatalf("%s: Violations did not derive %s behind the session plan", label, last.ID)
		}
	}
	old := s.plan
	if err := s.RemoveDC("C3"); err != nil {
		t.Fatal(err)
	}
	check("RemoveDC", old)
	old = s.plan
	if err := s.AddDC("C5: !(t1.Team = t2.Team & t1.City != t2.City)"); err != nil {
		t.Fatal(err)
	}
	check("AddDC", old)
}

// TestSessionPlannedMatchesUnplanned pins the session surface to the
// unplanned reference: violations and repair through a planned session
// are bit-identical to a cold-engine, planless explainer over the same
// inputs.
func TestSessionPlannedMatchesUnplanned(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	for _, workers := range []int{1, 4} {
		s, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
		wantClean, wantDiffs, err := ref.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotClean, gotDiffs, err := s.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !gotClean.Equal(wantClean) {
			t.Fatalf("workers=%d: planned session repair differs from unplanned reference", workers)
		}
		if len(gotDiffs) != len(wantDiffs) {
			t.Fatalf("workers=%d: %d diffs vs %d", workers, len(gotDiffs), len(wantDiffs))
		}
		for i := range wantDiffs {
			if gotDiffs[i] != wantDiffs[i] {
				t.Fatalf("workers=%d: diff %d: %v vs %v", workers, i, gotDiffs[i], wantDiffs[i])
			}
		}
		vs, err := s.Violations()
		if err != nil {
			t.Fatal(err)
		}
		var want int
		for _, c := range ll.DCs {
			pairs, err := c.Violations(ll.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			want += len(pairs)
		}
		if len(vs) != want {
			t.Fatalf("workers=%d: planned session reports %d violations, naive reference %d", workers, len(vs), want)
		}
	}
}
