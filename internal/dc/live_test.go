package dc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// assertLiveMatchesRescan compares every constraint's live list against a
// full from-scratch rescan (both the interpreted naive scan and the
// indexed scan), bit for bit.
func assertLiveMatchesRescan(t *testing.T, label string, cs []*Constraint, tbl *table.Table, live *LiveViolationSet) {
	t.Helper()
	for _, c := range cs {
		got, err := live.Violations(c, tbl)
		if err != nil {
			t.Fatalf("%s/%s: live: %v", label, c.ID, err)
		}
		want, err := c.Violations(tbl)
		if err != nil {
			t.Fatalf("%s/%s: rescan: %v", label, c.ID, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s/%s: live has %d pairs, rescan %d\nlive: %v\nrescan: %v",
				label, c.ID, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].Row1 != want[i].Row1 || got[i].Row2 != want[i].Row2 || got[i].Constraint != c {
				t.Fatalf("%s/%s: pair %d: live (%d,%d), rescan (%d,%d)",
					label, c.ID, i, got[i].Row1, got[i].Row2, want[i].Row1, want[i].Row2)
			}
		}
		// Append must agree with Violations and leave the prefix alone.
		buf := []Violation{{Constraint: c, Row1: -1, Row2: -1}}
		buf, err = live.Append(c, tbl, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(want)+1 || buf[0].Row1 != -1 {
			t.Fatalf("%s/%s: Append returned %d pairs (want %d) or clobbered the prefix", label, c.ID, len(buf)-1, len(want))
		}
	}
}

// liveConstraints mixes FD-shaped, multi-key, keyless, order-comparison
// and single-tuple constraints so every maintenance path runs.
func liveConstraints(t *testing.T) []*Constraint {
	t.Helper()
	cs, err := ParseSet(`
C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.Team = t2.Team & t1.Year = t2.Year & t1.Country != t2.Country)
C3: !(t1.City != t2.City & t1.Country != t2.Country & t1.Team != t2.Team & t1.Year != t2.Year)
C4: !(t1.Team = t2.Team & t1.Year > t2.Year)
C5: !(t1.Year < 2015)
`)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestLiveViolationSetRandomEdits is the tentpole golden test: under
// randomized single-cell edit sequences — including NaN, ±0.0, nulls and
// kind changes — the delta-maintained lists must stay bit-identical to
// full rescans.
func TestLiveViolationSetRandomEdits(t *testing.T) {
	tbl := deltaTable(t, 24, 21)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)
	rng := rand.New(rand.NewSource(22))
	values := []table.Value{
		table.String("team0"), table.String("team1"), table.String("city0"),
		table.String("country9"), table.Null(), table.Int(2016), table.String("2016"),
		table.Int(2014), table.Float(2016.0), table.Float(math.NaN()),
		table.Float(0.0), table.Float(math.Copysign(0, -1)),
	}
	for step := 0; step < 250; step++ {
		tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()), values[rng.Intn(len(values))])
		assertLiveMatchesRescan(t, fmt.Sprintf("step %d", step), cs, tbl, live)
	}
}

// TestLiveViolationSetBatchedEdits applies many edits between queries —
// repeated edits to one cell, edits that move a row out of and back into
// its bucket — still within the log window.
func TestLiveViolationSetBatchedEdits(t *testing.T) {
	tbl := deltaTable(t, 16, 23)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 25; round++ {
		row := rng.Intn(tbl.NumRows())
		col := rng.Intn(tbl.NumCols())
		was := tbl.Get(row, col)
		for k := 0; k < 20; k++ {
			switch rng.Intn(3) {
			case 0:
				// Out and back into the same bucket.
				tbl.Set(row, col, table.String("elsewhere"))
				tbl.Set(row, col, was)
			case 1:
				// Re-edit the same cell repeatedly.
				tbl.Set(row, col, table.String(fmt.Sprintf("v%d", rng.Intn(4))))
			default:
				tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
					table.String(fmt.Sprintf("v%d", rng.Intn(4))))
			}
		}
		assertLiveMatchesRescan(t, fmt.Sprintf("round %d", round), cs, tbl, live)
	}
}

// TestLiveViolationSetOverrunAndStructure forces log overrun and
// structural invalidation: the set must fall back to full re-derivation,
// never a partial delta.
func TestLiveViolationSetOverrunAndStructure(t *testing.T) {
	tbl := deltaTable(t, 12, 25)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)
	rng := rand.New(rand.NewSource(26))
	for k := 0; k < 2000; k++ { // far beyond the edit-log window
		tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
			table.String(fmt.Sprintf("w%d", rng.Intn(4))))
	}
	assertLiveMatchesRescan(t, "after overrun", cs, tbl, live)
	row := make([]table.Value, tbl.NumCols())
	for j := range row {
		row[j] = tbl.Get(0, j)
	}
	if err := tbl.Append(row); err != nil {
		t.Fatal(err)
	}
	assertLiveMatchesRescan(t, "after append", cs, tbl, live)
	tbl.Set(tbl.NumRows()-1, 1, table.String("cityX"))
	assertLiveMatchesRescan(t, "edit after append", cs, tbl, live)
}

// TestLiveViolationSetTableSwitch re-points one pooled set across work
// tables and through a shape-changing CopyFrom, the PlannedRepairer
// workload.
func TestLiveViolationSetTableSwitch(t *testing.T) {
	a := deltaTable(t, 10, 27)
	b := deltaTable(t, 14, 28)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	for round := 0; round < 4; round++ {
		assertLiveMatchesRescan(t, "table a", cs, a, live)
		assertLiveMatchesRescan(t, "table b", cs, b, live)
		a.Set(round, 0, table.String("teamZ"))
	}
	work := a.Clone()
	for round := 0; round < 6; round++ {
		src := a
		if round%2 == 1 {
			src = b
		}
		work.CopyFrom(src)
		assertLiveMatchesRescan(t, fmt.Sprintf("refresh %d", round), cs, work, live)
		work.Set(round, 2, table.String("countryR"))
		assertLiveMatchesRescan(t, fmt.Sprintf("mutate %d", round), cs, work, live)
	}
}

// TestLiveViolationSetMaterializesSmallTables runs a default set on a
// small table: every query is answered from a materialized, delta-maintained
// list (there is no small-table rescan mode) and must still match full
// rescans exactly.
func TestLiveViolationSetMaterializesSmallTables(t *testing.T) {
	tbl := deltaTable(t, 20, 33)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)
	assertMaterialized(t, cs, live)
	rng := rand.New(rand.NewSource(34))
	for step := 0; step < 40; step++ {
		tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
			table.String(fmt.Sprintf("v%d", rng.Intn(4))))
		assertLiveMatchesRescan(t, fmt.Sprintf("step %d", step), cs, tbl, live)
		assertMaterialized(t, cs, live)
	}
}

// assertMaterialized checks that every constraint has a valid list.
func assertMaterialized(t *testing.T, cs []*Constraint, live *LiveViolationSet) {
	t.Helper()
	for _, c := range cs {
		if l, ok := live.lists[c]; !ok || !l.valid {
			t.Fatalf("%s: no valid materialized list after a query", c.ID)
		}
	}
}

// bigDeltaTable is deltaTable with enough key diversity that a
// liveParallelRows-sized table has many small buckets, not four huge ones.
func bigDeltaTable(t *testing.T, rows int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := make([][]string, rows)
	for i := range grid {
		grid[i] = []string{
			fmt.Sprintf("team%d", rng.Intn(rows/8)),
			fmt.Sprintf("city%d", rng.Intn(6)),
			fmt.Sprintf("country%d", rng.Intn(4)),
			fmt.Sprintf("%d", 2010+rng.Intn(8)),
		}
	}
	return table.MustFromStrings([]string{"Team", "City", "Country", "Year"}, grid)
}

// TestLiveViolationSetParallelDerive checks that the worker-pool full
// derivation on a large table matches both the serial derivation and a
// full indexed rescan.
func TestLiveViolationSetParallelDerive(t *testing.T) {
	tbl := bigDeltaTable(t, liveParallelRows+500, 29)
	cs := liveConstraints(t)[:2] // FD-shaped ones; keyless would be O(n²)
	parallel := NewLiveViolationSet()
	serial := NewLiveViolationSet()
	serial.Workers = 1
	for _, c := range cs {
		want, err := c.ViolationsCached(tbl, NewScanIndex())
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := parallel.Violations(c, tbl)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := serial.Violations(c, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotP) != len(want) || len(gotS) != len(want) {
			t.Fatalf("%s: parallel %d, serial %d, rescan %d pairs", c.ID, len(gotP), len(gotS), len(want))
		}
		for i := range want {
			if gotP[i] != want[i] || gotS[i] != want[i] {
				t.Fatalf("%s: pair %d differs: parallel %v serial %v rescan %v", c.ID, i, gotP[i], gotS[i], want[i])
			}
		}
	}
	// Delta maintenance must keep working on the big table; compare against
	// an indexed rescan (the naive reference would be O(n²) here, and is
	// already pinned to the indexed scan by the small-table tests).
	teamCol := tbl.Schema().MustIndex("Team")
	tbl.Set(17, teamCol, table.String("team1"))
	for _, c := range cs {
		got, err := parallel.Violations(c, tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.ViolationsCached(tbl, NewScanIndex())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s after edit: live %d pairs, rescan %d", c.ID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s after edit: pair %d: live %v, rescan %v", c.ID, i, got[i], want[i])
			}
		}
	}
}

// TestLiveViolationSetViolatingGroups checks ForEachViolatingGroup visits
// exactly the buckets containing violations, ascending by first violating
// row, and skips clean groups.
func TestLiveViolationSetViolatingGroups(t *testing.T) {
	tbl := table.MustFromStrings([]string{"Team", "City", "Country", "Year"}, [][]string{
		{"a", "x", "p", "1"},
		{"a", "x", "p", "1"}, // clean duplicate group with team a... same city
		{"b", "x", "p", "1"},
		{"b", "y", "p", "1"}, // violating group: team b disagrees on city
		{"c", "z", "p", "1"},
		{"c", "w", "p", "1"}, // violating group: team c disagrees on city
	})
	c := MustParse("C1: !(t1.Team = t2.Team & t1.City != t2.City)")
	live := NewLiveViolationSet()
	var groups [][]int
	ok, err := live.ForEachViolatingGroup(c, tbl, func(rows []int) error {
		groups = append(groups, append([]int(nil), rows...))
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(groups) != 2 {
		t.Fatalf("visited %d groups, want 2: %v", len(groups), groups)
	}
	if fmt.Sprint(groups[0]) != "[2 3]" || fmt.Sprint(groups[1]) != "[4 5]" {
		t.Fatalf("groups = %v, want [[2 3] [4 5]]", groups)
	}
	// Keyless constraint: no groups, ok=false.
	keyless := MustParse("C9: !(t1.City != t2.City & t1.Team != t2.Team & t1.Country != t2.Country & t1.Year != t2.Year)")
	ok, err = live.ForEachViolatingGroup(keyless, tbl, func([]int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("keyless constraint must report ok=false")
	}
}
