package dc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// deltaTable builds a soccer-flavoured table with duplicate join keys so
// the composite buckets have real content.
func deltaTable(t *testing.T, rows int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := make([][]string, rows)
	for i := range grid {
		grid[i] = []string{
			fmt.Sprintf("team%d", rng.Intn(4)),
			fmt.Sprintf("city%d", rng.Intn(3)),
			fmt.Sprintf("country%d", rng.Intn(3)),
			fmt.Sprintf("%d", 2015+rng.Intn(3)),
		}
	}
	return table.MustFromStrings([]string{"Team", "City", "Country", "Year"}, grid)
}

// deltaConstraints mixes single- and multi-column join keys, plus one
// keyless constraint, so the index maintains several signatures at once.
func deltaConstraints(t *testing.T) []*Constraint {
	t.Helper()
	cs, err := ParseSet(`
C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.Team = t2.Team & t1.Year = t2.Year & t1.Country != t2.Country)
C3: !(t1.City != t2.City & t1.Country != t2.Country & t1.Team != t2.Team & t1.Year != t2.Year)
`)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// assertSameViolations compares the cached (delta-maintained) scan against
// a from-scratch indexed scan for every constraint, plus the per-row
// primitives on every row.
func assertSameViolations(t *testing.T, label string, cs []*Constraint, tbl *table.Table, ix *ScanIndex) {
	t.Helper()
	for _, c := range cs {
		got, err := c.ViolationsCached(tbl, ix)
		if err != nil {
			t.Fatalf("%s/%s: cached: %v", label, c.ID, err)
		}
		want, err := c.ViolationsIndexed(tbl)
		if err != nil {
			t.Fatalf("%s/%s: fresh: %v", label, c.ID, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d violations cached, %d fresh", label, c.ID, len(got), len(want))
		}
		for i := range got {
			if got[i].Row1 != want[i].Row1 || got[i].Row2 != want[i].Row2 {
				t.Fatalf("%s/%s: violation %d: cached (%d,%d), fresh (%d,%d)",
					label, c.ID, i, got[i].Row1, got[i].Row2, want[i].Row1, want[i].Row2)
			}
		}
		for row := 0; row < tbl.NumRows(); row++ {
			gotRow, err := c.ViolatesRowCached(tbl, row, ix)
			if err != nil {
				t.Fatal(err)
			}
			wantRow, err := c.ViolatesRow(tbl, row)
			if err != nil {
				t.Fatal(err)
			}
			if gotRow != wantRow {
				t.Fatalf("%s/%s: row %d: cached %v, fresh %v", label, c.ID, row, gotRow, wantRow)
			}
			gotN, err := c.ViolationPairsForRow(tbl, row, ix)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := c.ViolationPairsForRow(tbl, row, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("%s/%s: row %d: %d pairs cached, %d fresh", label, c.ID, row, gotN, wantN)
			}
		}
	}
}

// TestScanIndexDeltaMaintenance fuzzes single-cell edits against the scan
// index: after every edit the delta-maintained buckets must agree with a
// from-scratch rebuild, including edits to join columns, non-join columns,
// nulls in and out of join keys, and value kinds whose keys collide
// lexically but not canonically.
func TestScanIndexDeltaMaintenance(t *testing.T) {
	tbl := deltaTable(t, 24, 1)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	assertSameViolations(t, "initial", cs, tbl, ix)
	rng := rand.New(rand.NewSource(2))
	values := []table.Value{
		table.String("team0"), table.String("team1"), table.String("city0"),
		table.String("country9"), table.Null(), table.Int(2016), table.String("2016"),
	}
	for step := 0; step < 300; step++ {
		ref := table.CellRef{Row: rng.Intn(tbl.NumRows()), Col: rng.Intn(tbl.NumCols())}
		tbl.SetRef(ref, values[rng.Intn(len(values))])
		assertSameViolations(t, fmt.Sprintf("step %d", step), cs, tbl, ix)
	}
}

// TestScanIndexDeltaBatch covers multi-edit catch-up: many edits between
// scans, still within the log window.
func TestScanIndexDeltaBatch(t *testing.T) {
	tbl := deltaTable(t, 16, 3)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	assertSameViolations(t, "initial", cs, tbl, ix)
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 20; round++ {
		for k := 0; k < 30; k++ {
			tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
				table.String(fmt.Sprintf("v%d", rng.Intn(5))))
		}
		assertSameViolations(t, fmt.Sprintf("round %d", round), cs, tbl, ix)
	}
}

// TestScanIndexLogOverrun forces more edits than the table's edit log
// retains: the index must detect the lost history and rebuild, not apply a
// partial delta.
func TestScanIndexLogOverrun(t *testing.T) {
	tbl := deltaTable(t, 12, 5)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	assertSameViolations(t, "initial", cs, tbl, ix)
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 2000; k++ { // far beyond the log window
		tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
			table.String(fmt.Sprintf("w%d", rng.Intn(4))))
	}
	assertSameViolations(t, "after overrun", cs, tbl, ix)
}

// TestScanIndexAppendInvalidates covers structural changes: appending a
// row must force a rebuild (the delta protocol only covers cell edits).
func TestScanIndexAppendInvalidates(t *testing.T) {
	tbl := deltaTable(t, 8, 7)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	assertSameViolations(t, "initial", cs, tbl, ix)
	row := make([]table.Value, tbl.NumCols())
	for j := range row {
		row[j] = tbl.Get(0, j)
	}
	if err := tbl.Append(row); err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, "after append", cs, tbl, ix)
	tbl.Set(tbl.NumRows()-1, 1, table.String("cityX"))
	assertSameViolations(t, "edit after append", cs, tbl, ix)
}

// TestScanIndexTableSwitch covers re-pointing one index at different
// tables (the pooled work-table workload) and at a table whose schema is
// swapped by a shape-changing CopyFrom.
func TestScanIndexTableSwitch(t *testing.T) {
	a := deltaTable(t, 10, 8)
	b := deltaTable(t, 14, 9)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	for round := 0; round < 4; round++ {
		assertSameViolations(t, "table a", cs, a, ix)
		assertSameViolations(t, "table b", cs, b, ix)
		a.Set(round, 0, table.String("teamZ"))
	}
	// Shape-changing CopyFrom swaps schema and rows under the same pointer.
	narrow := table.MustFromStrings([]string{"Team", "City", "Country", "Year"}, [][]string{
		{"t", "c", "x", "1"}, {"t", "d", "x", "1"},
	})
	b.CopyFrom(narrow)
	assertSameViolations(t, "after CopyFrom", cs, b, ix)
}

// TestScanIndexCopyFromDelta drives the exact PlannedRepairer workload:
// refresh a work table from alternating sources via CopyFrom, scan, mutate,
// scan — the index must stay correct throughout while never being handed
// an explicit invalidation.
func TestScanIndexCopyFromDelta(t *testing.T) {
	src1 := deltaTable(t, 12, 10)
	src2 := src1.Clone()
	src2.Set(3, 1, table.String("cityQ"))
	src2.Set(7, 2, table.Null())
	cs := deltaConstraints(t)
	work := src1.Clone()
	ix := NewScanIndex()
	for round := 0; round < 10; round++ {
		src := src1
		if round%2 == 1 {
			src = src2
		}
		work.CopyFrom(src)
		assertSameViolations(t, fmt.Sprintf("refresh %d", round), cs, work, ix)
		work.Set(round, 2, table.String("countryR"))
		assertSameViolations(t, fmt.Sprintf("mutate %d", round), cs, work, ix)
	}
}

// TestJoinKeyUnifiesNumericKinds is the regression test for a
// bucket-partition soundness bug: the = predicate unifies int and float
// (and ±0.0) numerically, so the hash-join key must too — a kind-sensitive
// key separated rows the predicate joins, and every bucket-restricted
// probe (ViolatesRowCached, ViolationPairsForRow, the chase grouping)
// silently missed their violations.
func TestJoinKeyUnifiesNumericKinds(t *testing.T) {
	c, err := Parse("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(mustSchema(t, "A", "B"))
	appendRow := func(a, b table.Value) {
		t.Helper()
		if err := tbl.Append([]table.Value{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	appendRow(table.Int(1), table.String("x"))
	appendRow(table.Float(1.0), table.String("y")) // = int 1 under the predicate
	appendRow(table.Float(0.0), table.String("x"))
	appendRow(table.Float(math.Copysign(0, -1)), table.String("y")) // -0.0 = 0.0
	ix := NewScanIndex()
	want, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture must violate: int 1 and float 1.0 disagree on B")
	}
	got, err := c.ViolationsCached(tbl, ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("indexed scan found %d violations, exact scan %d", len(got), len(want))
	}
	for i := 0; i < tbl.NumRows(); i++ {
		exact, err := c.ViolatesRow(tbl, i)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := c.ViolatesRowCached(tbl, i, ix)
		if err != nil {
			t.Fatal(err)
		}
		if exact != indexed {
			t.Fatalf("row %d: exact %v, bucket-restricted %v", i, exact, indexed)
		}
		nExact, err := c.ViolationPairsForRow(tbl, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		nIndexed, err := c.ViolationPairsForRow(tbl, i, ix)
		if err != nil {
			t.Fatal(err)
		}
		if nExact != nIndexed {
			t.Fatalf("row %d: %d pairs exact, %d bucket-restricted", i, nExact, nIndexed)
		}
	}
}

func mustSchema(t *testing.T, names ...string) *table.Schema {
	t.Helper()
	s, err := table.SchemaOf(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
