package table

import (
	"fmt"
	"math"
	"testing"
)

// identicalValue is representation equality with NaN equal to itself: what
// CopyFrom promises cell by cell.
func identicalValue(a, b Value) bool {
	return a == b || (a.IsNaN() && b.IsNaN() && a.Kind() == b.Kind())
}

// assertCopied checks that work holds src's shape and values exactly.
func assertCopied(t *testing.T, label string, work, src *Table) {
	t.Helper()
	if !work.Schema().Equal(src.Schema()) || work.NumRows() != src.NumRows() {
		t.Fatalf("%s: shape %dx%d, source %dx%d", label, work.NumRows(), work.NumCols(), src.NumRows(), src.NumCols())
	}
	for i := 0; i < src.NumRows(); i++ {
		for j := 0; j < src.NumCols(); j++ {
			if !identicalValue(work.Get(i, j), src.Get(i, j)) {
				t.Fatalf("%s: cell (%d,%d) = %v, source has %v", label, i, j, work.Get(i, j), src.Get(i, j))
			}
		}
	}
}

// FuzzCopyFromDelta drives the delta refresh of CopyFrom with a
// fuzzer-chosen interleaving of source edits, work-table edits (the
// writes a repair makes between refreshes), row inserts and deletes on
// either side, batch brackets, bursts long enough to overrun the edit
// ring, and switches to another source — one sharing the schema, one with
// an equal schema, one with a different schema. After every copy the work
// table must equal the source value for value, and statistics synced from
// the work table's edit log must equal a fresh rebuild.
func FuzzCopyFromDelta(f *testing.F) {
	f.Add([]byte{0x01, 0x45, 0xf0, 0x12, 0x56, 0xf1})
	f.Add([]byte{0x70, 0xf0, 0x93, 0xf0, 0xb4, 0xc5, 0xf0})
	f.Add([]byte{0xd0, 0xf0, 0x02, 0xd1, 0x46, 0xf0})
	f.Add([]byte{0xe1, 0xf0, 0x03, 0xe2, 0xf0, 0xe3, 0x47, 0xf0, 0xe0, 0xf0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		// 48 cells, so windows of up to six edits take the delta path.
		grid := func(rows, cols, salt int) [][]string {
			g := make([][]string, rows)
			for i := range g {
				for j := 0; j < cols; j++ {
					g[i] = append(g[i], fmt.Sprint((i*7+j*3+salt)%5))
				}
			}
			return g
		}
		a := MustFromStrings([]string{"A", "B", "C"}, grid(16, 3, 0))
		b := a.Clone() // same schema pointer
		b.Set(1, 0, String("q"))
		c := MustFromStrings([]string{"A", "B", "C"}, grid(16, 3, 1)) // equal schema
		d := MustFromStrings([]string{"X", "Y"}, grid(12, 2, 2))
		sources := []*Table{a, b, c, d}
		src := a
		work := a.Clone()
		stats := NewStats(work)
		values := []Value{String("a"), String("b"), Int(1), Float(1), Null(), Float(math.NaN())}
		value := func(x byte) Value { return values[int(x)%len(values)] }
		randomRow := func(tbl *Table, x byte) []Value {
			row := make([]Value, tbl.NumCols())
			for j := range row {
				row[j] = value(x + byte(j))
			}
			return row
		}
		set := func(tbl *Table, x byte) {
			tbl.Set(int(x)%tbl.NumRows(), int(x>>2)%tbl.NumCols(), value(x>>1))
		}
		copies := 0
		refresh := func(i int) {
			work.CopyFrom(src)
			copies++
			label := fmt.Sprintf("op %d (copy %d)", i, copies)
			assertCopied(t, label, work, src)
			stats.Sync(work)
			sameStats(t, label, stats, NewStats(work), work)
		}
		for i, x := range stream {
			switch x >> 4 {
			case 0, 1, 2, 3:
				set(src, x)
			case 4, 5, 6:
				set(work, x)
			case 7:
				if err := src.Append(randomRow(src, x)); err != nil {
					t.Fatal(err)
				}
			case 8:
				if src.NumRows() > 1 {
					src.DeleteRow(int(x) % src.NumRows())
				}
			case 9:
				if err := work.Append(randomRow(work, x)); err != nil {
					t.Fatal(err)
				}
			case 10:
				if work.NumRows() > 1 {
					work.DeleteRow(int(x) % work.NumRows())
				}
			case 11, 12:
				// A batch bracket on the source or the work table; copies
				// made while it is open refresh from or into a table whose
				// generation is already minted for later edits.
				tbl := src
				if x>>4 == 12 {
					tbl = work
				}
				err := tbl.ApplyBatch(func(bt *Table) error {
					set(bt, x)
					if x&1 == 0 {
						work.CopyFrom(src)
						assertCopied(t, fmt.Sprintf("op %d in batch", i), work, src)
					}
					set(bt, x^0x55)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case 13:
				// A burst past the edit ring on one side.
				tbl := src
				if x&1 == 1 {
					tbl = work
				}
				for k := 0; k < editLogWindow+8; k++ {
					set(tbl, x+byte(k))
				}
			case 14:
				src = sources[int(x)%len(sources)]
			case 15:
				refresh(i)
			}
			if i%4 == 3 {
				refresh(i)
			}
		}
		refresh(len(stream))
	})
}

// TestCopyFromDeltaVisitsOnlyEdits shows which path a refresh took: a
// source cell written behind the edit log is invisible to the delta
// refresh, which visits only logged cells, and picked up again once a
// structural edit forces the full compare.
func TestCopyFromDeltaVisitsOnlyEdits(t *testing.T) {
	// 16 cells: a two-edit window is small enough for the delta path.
	grid := make([][]string, 8)
	for i := range grid {
		grid[i] = []string{fmt.Sprintf("r%d", i), fmt.Sprint(i + 1)}
	}
	src := MustFromStrings([]string{"A", "B"}, grid)
	work := New(src.Schema())
	work.CopyFrom(src)
	src.rows[2][1] = String("unlogged")
	src.Set(0, 0, String("logged"))
	work.Set(1, 1, String("repaired"))
	gen := work.Generation()
	work.CopyFrom(src)
	if work.Get(0, 0) != String("logged") || work.Get(1, 1) != src.Get(1, 1) {
		t.Fatalf("delta refresh missed a logged cell: %v %v", work.Get(0, 0), work.Get(1, 1))
	}
	if work.Get(2, 1) != Int(3) {
		t.Fatalf("delta refresh visited an unlogged cell: %v", work.Get(2, 1))
	}
	if edits, ok := work.EditsSince(gen, nil); !ok || len(edits) != 2 || edits[0].Row != 0 || edits[1].Row != 1 {
		t.Fatalf("delta refresh logged %v (ok=%v), want (0,0) then (1,1)", edits, ok)
	}
	if err := src.Append([]Value{String("v"), Int(9)}); err != nil {
		t.Fatal(err)
	}
	src.DeleteRow(8)
	work.CopyFrom(src)
	if work.Get(2, 1) != String("unlogged") {
		t.Fatalf("a structural window must force the full compare: %v", work.Get(2, 1))
	}
}
