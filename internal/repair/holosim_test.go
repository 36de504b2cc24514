package repair

import (
	"context"
	"errors"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/table"
)

func TestHoloSimRepairsLaLiga(t *testing.T) {
	ll := data.NewLaLiga()
	h := NewHoloSim(1)
	clean, err := h.Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	// HoloSim need not match Algorithm 1 cell for cell, but it must end
	// consistent and must fix the cell of interest the same way.
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
		t.Fatalf("HoloSim left violations: %v\n%s", vs, clean)
	}
	if got := clean.GetRef(ll.CellOfInterest); !got.Equal(table.String("Spain")) {
		t.Errorf("t5[Country] = %v, want Spain", got)
	}
}

func TestHoloSimDeterministic(t *testing.T) {
	ll := data.NewLaLiga()
	a, err := NewHoloSim(5).Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHoloSim(5).Repair(context.Background(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("HoloSim must be deterministic for a fixed seed")
	}
}

func TestHoloSimDoesNotMutateInput(t *testing.T) {
	ll := data.NewLaLiga()
	snapshot := ll.Dirty.Clone()
	if _, err := NewHoloSim(1).Repair(context.Background(), ll.DCs, ll.Dirty); err != nil {
		t.Fatal(err)
	}
	if !ll.Dirty.Equal(snapshot) {
		t.Fatal("HoloSim mutated its input")
	}
}

func TestHoloSimCleanInputIsFixpoint(t *testing.T) {
	ll := data.NewLaLiga()
	out, err := NewHoloSim(1).Repair(context.Background(), ll.DCs, ll.Clean)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(ll.Clean) {
		t.Fatal("a consistent table must pass through unchanged")
	}
}

func TestHoloSimNoConstraints(t *testing.T) {
	ll := data.NewLaLiga()
	out, err := NewHoloSim(1).Repair(context.Background(), nil, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(ll.Dirty) {
		t.Fatal("no constraints ⇒ no suspects ⇒ no changes")
	}
}

func TestHoloSimSyntheticTyposAccuracy(t *testing.T) {
	// HoloClean-style behaviour: on a larger table with injected typos in
	// FD-covered columns, most repairs should restore the ground truth.
	clean := data.GenerateSoccer(data.SoccerConfig{Leagues: 2, TeamsPerLeague: 8, Seed: 2})
	dirty, injections, err := data.Inject(clean, data.InjectSpec{
		Rate: 0.05, Columns: []string{"Country", "City"}, Kinds: []data.ErrorKind{data.ErrorTypo}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(injections) < 2 {
		t.Skip("too few injections landed")
	}
	out, err := NewHoloSim(1).Repair(context.Background(), data.SoccerDCs(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, inj := range injections {
		if out.GetRef(inj.Ref).SameContent(inj.Clean) {
			restored++
		}
	}
	if restored*2 < len(injections) {
		t.Errorf("restored %d/%d injected errors; want a majority", restored, len(injections))
	}
}

func TestHoloSimContextCancel(t *testing.T) {
	ll := data.NewLaLiga()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewHoloSim(1).Repair(ctx, ll.DCs, ll.Dirty); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestHoloSimDomainCapRespected(t *testing.T) {
	ll := data.NewLaLiga()
	h := NewHoloSim(1)
	h.DomainCap = 2
	if _, err := h.Repair(context.Background(), ll.DCs, ll.Dirty); err != nil {
		t.Fatal(err)
	}
	stats := table.NewStats(ll.Dirty)
	dom := h.domain(ll.Dirty, stats, table.CellRef{Row: 4, Col: 2}, newHoloRun(h.seed))
	if len(dom) > 2 {
		t.Fatalf("domain size %d exceeds cap", len(dom))
	}
}

func TestHoloSimDetectFindsSuspects(t *testing.T) {
	ll := data.NewLaLiga()
	h := NewHoloSim(1)
	suspects, err := h.detect(ll.DCs, ll.Dirty, newHoloRun(h.seed))
	if err != nil {
		t.Fatal(err)
	}
	want := map[table.CellRef]bool{}
	for _, s := range suspects {
		want[s] = true
	}
	// The cell of interest and its League/City neighborhood must be
	// suspect; Year cells must not (C4 has no violations).
	if !want[table.CellRef{Row: 4, Col: 2}] {
		t.Error("t5[Country] must be suspect")
	}
	yearCol := ll.Dirty.Schema().MustIndex("Year")
	for _, s := range suspects {
		if s.Col == yearCol {
			t.Errorf("Year cell %v must not be suspect", s)
		}
	}
	// Deterministic order.
	for i := 1; i < len(suspects); i++ {
		if ll.Dirty.VecIndex(suspects[i-1]) >= ll.Dirty.VecIndex(suspects[i]) {
			t.Fatal("suspects must be sorted in vectorization order")
		}
	}
}
