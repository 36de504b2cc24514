package data

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dc"
	"repro/internal/table"
)

func TestLaLigaShape(t *testing.T) {
	ll := NewLaLiga()
	if ll.Dirty.NumRows() != 6 || ll.Dirty.NumCols() != 6 {
		t.Fatalf("dims %dx%d", ll.Dirty.NumRows(), ll.Dirty.NumCols())
	}
	if ll.Dirty.NumCells() != 36 {
		t.Fatal("Example 2.4 requires 36 cells")
	}
	if len(ll.DCs) != 4 {
		t.Fatalf("DCs = %d", len(ll.DCs))
	}
	if got := ll.Dirty.RefName(ll.CellOfInterest); got != "t5[Country]" {
		t.Fatalf("cell of interest = %s", got)
	}
	if err := dc.ValidateSet(ll.DCs, ll.Dirty.Schema()); err != nil {
		t.Fatal(err)
	}
}

func TestLaLigaDirtyVsClean(t *testing.T) {
	ll := NewLaLiga()
	diffs, err := table.Diff(ll.Dirty, ll.Clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 3 {
		t.Fatalf("dirty cells = %d, want 3:\n%s", len(diffs), table.FormatDiffs(ll.Dirty, diffs))
	}
	// t5[Country]: España -> Spain (Example 2.1).
	if !ll.Dirty.GetRef(ll.CellOfInterest).Equal(table.String("España")) {
		t.Error("dirty t5[Country] must be España")
	}
	if !ll.Clean.GetRef(ll.CellOfInterest).Equal(table.String("Spain")) {
		t.Error("clean t5[Country] must be Spain")
	}
}

func TestLaLigaCleanIsConsistent(t *testing.T) {
	ll := NewLaLiga()
	ok, err := dc.Consistent(ll.DCs, ll.Clean)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		var vs []dc.Violation
		for _, c := range ll.DCs {
			cv, _ := c.Violations(ll.Clean)
			vs = append(vs, cv...)
		}
		t.Fatalf("clean table violates constraints: %v", vs)
	}
	ok, err = dc.Consistent(ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dirty table must be inconsistent")
	}
}

func TestLaLigaExample24Structure(t *testing.T) {
	// Example 2.4: rows {1,2,3,6} have the (La Liga, Spain) pair and t4
	// does not.
	ll := NewLaLiga()
	for _, i := range []int{0, 1, 2, 5} {
		if !ll.Dirty.GetByName(i, "League").Equal(table.String("La Liga")) ||
			!ll.Dirty.GetByName(i, "Country").Equal(table.String("Spain")) {
			t.Errorf("t%d must carry (La Liga, Spain)", i+1)
		}
	}
	if ll.Dirty.GetByName(3, "Country").Equal(table.String("Spain")) {
		t.Error("t4 must not carry a clean Spain (Example 2.4 excludes i=4)")
	}
}

func TestGenerateSoccerConsistent(t *testing.T) {
	tbl := GenerateSoccer(SoccerConfig{Leagues: 3, TeamsPerLeague: 5, Years: 2, Seed: 1})
	if tbl.NumRows() != 3*5*2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	ok, err := dc.Consistent(SoccerDCs(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		var vs []dc.Violation
		for _, c := range SoccerDCs() {
			cv, _ := c.Violations(tbl)
			vs = append(vs, cv...)
		}
		t.Fatalf("generated table must satisfy C1..C4, got %v", vs)
	}
}

func TestGenerateSoccerConsistencyProperty(t *testing.T) {
	f := func(seed int64, l, m, y uint8) bool {
		cfg := SoccerConfig{
			Leagues:        int(l)%4 + 1,
			TeamsPerLeague: int(m)%6 + 2,
			Years:          int(y)%3 + 1,
			Seed:           seed,
		}
		tbl := GenerateSoccer(cfg)
		ok, err := dc.Consistent(SoccerDCs(), tbl)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGenerateSoccerDeterministic(t *testing.T) {
	a := GenerateSoccer(SoccerConfig{Seed: 9})
	b := GenerateSoccer(SoccerConfig{Seed: 9})
	if !a.Equal(b) {
		t.Fatal("same seed must generate the same table")
	}
	c := GenerateSoccer(SoccerConfig{Seed: 10})
	if a.Equal(c) {
		t.Fatal("different seeds should differ (places are permuted)")
	}
}

func TestGenerateSoccerManyLeagues(t *testing.T) {
	tbl := GenerateSoccer(SoccerConfig{Leagues: 15, TeamsPerLeague: 2, Seed: 3})
	countries := table.NewStats(tbl).ColumnByName("Country")
	if len(countries.Support()) != 15 {
		t.Fatalf("15 leagues must map to 15 distinct countries, got %d", len(countries.Support()))
	}
}

func TestInjectBasics(t *testing.T) {
	clean := GenerateSoccer(SoccerConfig{Leagues: 2, TeamsPerLeague: 10, Seed: 5})
	dirty, injections, err := Inject(clean, InjectSpec{Rate: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Equal(dirty) {
		t.Fatal("injection must change the table")
	}
	diffs, err := table.Diff(clean, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != len(injections) {
		t.Fatalf("diffs %d vs injections %d", len(diffs), len(injections))
	}
	for _, inj := range injections {
		if !dirty.GetRef(inj.Ref).SameContent(inj.Dirty) {
			t.Errorf("injection record mismatch at %v", inj.Ref)
		}
		if !clean.GetRef(inj.Ref).SameContent(inj.Clean) {
			t.Errorf("clean record mismatch at %v", inj.Ref)
		}
		if inj.Clean.SameContent(inj.Dirty) {
			t.Errorf("injection at %v did not change the value", inj.Ref)
		}
	}
}

func TestInjectRateZeroAndValidation(t *testing.T) {
	clean := GenerateSoccer(SoccerConfig{Seed: 5})
	dirty, injections, err := Inject(clean, InjectSpec{Rate: 0, Seed: 1})
	if err != nil || len(injections) != 0 || !dirty.Equal(clean) {
		t.Fatal("rate 0 must be a no-op")
	}
	if _, _, err := Inject(clean, InjectSpec{Rate: 1.5}); err == nil {
		t.Error("rate > 1 must error")
	}
	if _, _, err := Inject(clean, InjectSpec{Rate: 0.1, Columns: []string{"Nope"}}); err == nil {
		t.Error("unknown column must error")
	}
}

func TestInjectColumnsRestriction(t *testing.T) {
	clean := GenerateSoccer(SoccerConfig{Leagues: 2, TeamsPerLeague: 10, Seed: 5})
	col := clean.Schema().MustIndex("Country")
	_, injections, err := Inject(clean, InjectSpec{Rate: 0.5, Columns: []string{"Country"}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(injections) == 0 {
		t.Fatal("expected injections")
	}
	for _, inj := range injections {
		if inj.Ref.Col != col {
			t.Errorf("injection outside Country column: %v", inj.Ref)
		}
	}
}

func TestInjectKinds(t *testing.T) {
	clean := GenerateSoccer(SoccerConfig{Leagues: 2, TeamsPerLeague: 10, Seed: 5})
	for _, kind := range []ErrorKind{ErrorTypo, ErrorSwap, ErrorNull, ErrorForeign} {
		_, injections, err := Inject(clean, InjectSpec{Rate: 0.2, Kinds: []ErrorKind{kind}, Columns: []string{"City"}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(injections) == 0 {
			t.Errorf("kind %d produced no injections", kind)
			continue
		}
		for _, inj := range injections {
			switch kind {
			case ErrorNull:
				if !inj.Dirty.IsNull() {
					t.Errorf("null injection produced %v", inj.Dirty)
				}
			case ErrorForeign:
				if inj.Dirty.Kind() != table.KindString || inj.Dirty.Str()[0] != '@' {
					t.Errorf("foreign injection produced %v", inj.Dirty)
				}
			}
		}
	}
}

func TestInjectDeterministic(t *testing.T) {
	clean := GenerateSoccer(SoccerConfig{Seed: 5})
	d1, i1, _ := Inject(clean, InjectSpec{Rate: 0.2, Seed: 11})
	d2, i2, _ := Inject(clean, InjectSpec{Rate: 0.2, Seed: 11})
	if !d1.Equal(d2) || len(i1) != len(i2) {
		t.Fatal("same seed must inject identically")
	}
}

func TestTypoAlwaysChanges(t *testing.T) {
	f := func(seed int64, s string) bool {
		if len([]rune(s)) < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		return typo(rng, s) != s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGenerateHospitalConsistent(t *testing.T) {
	tbl := GenerateHospital(HospitalConfig{Providers: 30, Zips: 7, Seed: 4})
	if tbl.NumRows() != 30 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	ok, err := dc.Consistent(HospitalDCs(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("generated hospital table must satisfy its DCs")
	}
}

func TestHospitalDirtyDetectable(t *testing.T) {
	clean := GenerateHospital(HospitalConfig{Providers: 30, Zips: 5, Seed: 4})
	dirty, injections, err := Inject(clean, InjectSpec{Rate: 0.1, Columns: []string{"City", "State"}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(injections) == 0 {
		t.Skip("no injections landed")
	}
	ok, err := dc.Consistent(HospitalDCs(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("city/state corruptions on shared zips should violate H1/H2")
	}
}
