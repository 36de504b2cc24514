package table

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// CellRef addresses a single cell by row index and column index. It is the
// "player" identity used by the cell-Shapley game: the paper vectorizes the
// table as x_T = (t1[A1], t1[A2], ..., tn[Am]) and a CellRef is one slot of
// that vector.
type CellRef struct {
	Row int
	Col int
}

// String renders the reference as "t<row+1>[<col>]" to match the paper's
// t5[Country] notation when a schema is not at hand.
func (r CellRef) String() string { return fmt.Sprintf("t%d[col%d]", r.Row+1, r.Col) }

// Table is a mutable in-memory relation: a schema plus rows of typed values.
// Tables are not safe for concurrent mutation; the Shapley engine always
// works on private clones or pooled scratch copies.
type Table struct {
	schema *Schema
	rows   [][]Value
	// gen counts mutations. Index structures built over a table (e.g. the
	// violation-scan buckets in package dc) key their cache on (table,
	// generation) and rebuild only when the generation moved.
	gen uint64
	// edits is a bounded ring of the most recent mutations — cell
	// overwrites and structural row edits alike — so index structures can
	// catch up from an older generation by replaying typed deltas instead
	// of rebuilding wholesale (see EditsSince). Allocated lazily on the
	// first mutation so tables that are never mutated pay nothing.
	edits []Edit
	// editHead is the ring slot the next edit is written to; editLen is the
	// number of valid entries (≤ len(edits)).
	editHead, editLen int
	// minDeltaGen is the oldest generation EditsSince can catch up from:
	// shape-changing CopyFrom and ring eviction advance it.
	minDeltaGen uint64
	// batchDepth counts open ApplyBatch brackets; while positive, mutations
	// share the generation minted when the outermost bracket opened.
	batchDepth int
	// id names the table to CopyFrom's delta refresh without keeping it
	// alive; 0 (a zero-value Table) is never tracked.
	id uint64
	// copySrc is the id of the table the last CopyFrom copied, and
	// copySrcGen/copyOwnGen the two generations right after it; 0 when
	// the next CopyFrom must compare every cell.
	copySrc                uint64
	copySrcGen, copyOwnGen uint64
	// copyBuf is CopyFrom's pooled edit-window scratch.
	copyBuf []Edit
}

// tableIDs mints Table.id values.
var tableIDs atomic.Uint64

// EditKind discriminates the entries of the typed edit log.
type EditKind uint8

const (
	// EditSet is a single-cell overwrite at (Row, Col).
	EditSet EditKind = iota
	// EditInsert is a row append: the row now at index Row (equal to the
	// row count before the insert) is new.
	EditInsert
	// EditDelete is a swap-delete: the row that was at index Row is gone,
	// the row that was last before the delete now lives at index Row (when
	// Row was not already last), and the table is one row shorter. This is
	// the row-identity remapping rule every incremental consumer must
	// honor; RowRemap decodes a whole window of it.
	EditDelete
)

// Edit records one table mutation: a cell overwrite or a structural row
// change. Gen is the table generation after the edit was applied; edits
// applied inside one ApplyBatch share a single generation, so generations
// along the log are non-decreasing rather than strictly increasing. Col
// is -1 for structural edits.
type Edit struct {
	Gen      uint64
	Row, Col int
	Kind     EditKind
}

// editLogWindow bounds the edit ring. It must comfortably exceed the number
// of cells a repair pass or a scratch-copy refresh touches on the paper's
// working tables so that pooled scan indexes stay on the delta path; larger
// tables degrade gracefully to full rebuilds. The ring starts small
// (editLogInitial) and doubles on demand, so short-lived clones that absorb
// a handful of masking edits pay bytes proportional to their history, not
// the cap.
const (
	editLogInitial = 32
	editLogWindow  = 512
)

// EditsSince wraps ring positions by masking: the ring starts at a power
// of two and doubles, which this fails to compile without.
const _ uint = -(editLogInitial & (editLogInitial - 1))

// logEdit bumps the generation and appends one cell overwrite to the
// ring. It reduces to a single call into logTyped so Set/SetRef stay one
// store plus one call — small enough to inline into the evaluation
// loops, where the write path is the hottest instruction sequence in the
// repository.
func (t *Table) logEdit(row, col int) {
	t.logTyped(row, col, EditSet)
}

// logStructural bumps the generation and appends one row insert or
// delete to the ring. Call after the rows slice has its final shape: it
// is the invalidation barrier of every structural mutation, pairing each
// row move with the log entry consumers replay to stay in sync.
func (t *Table) logStructural(kind EditKind, row int) {
	t.logTyped(row, -1, kind)
}

// logTyped bumps the generation and appends one typed entry to the
// bounded ring. The bump and the append share this deliberately
// non-inlinable callee (see logEdit).
func (t *Table) logTyped(row, col int, kind EditKind) {
	t.bump()
	e := Edit{Gen: t.gen, Row: row, Col: col, Kind: kind}
	if t.edits == nil {
		t.edits = make([]Edit, editLogInitial)
	}
	if t.editLen == len(t.edits) {
		if n := len(t.edits); n < editLogWindow {
			// Grow: unroll the full ring (oldest first) into a larger
			// backing array. The ring is full, so the oldest entry sits at
			// editHead.
			grown := make([]Edit, 2*n)
			copied := copy(grown, t.edits[t.editHead:])
			copy(grown[copied:], t.edits[:t.editHead])
			t.edits = grown
			t.editHead = n
			t.editLen++
		} else {
			// Evicting the oldest entry loses history at and before its
			// generation.
			t.minDeltaGen = t.edits[t.editHead].Gen
		}
	} else {
		t.editLen++
	}
	t.edits[t.editHead] = e
	t.editHead++
	if t.editHead == len(t.edits) {
		t.editHead = 0
	}
}

// invalidateEdits abandons the retained history: delta catch-up across
// this point is impossible and every consumer must rebuild. Only
// wholesale replacements that defy per-row logging (a shape-changing
// CopyFrom) use it — plain inserts and deletes are typed log entries.
func (t *Table) invalidateEdits() {
	t.minDeltaGen = t.gen
	t.editLen = 0
	t.editHead = 0
}

// EditsSince appends to buf every typed edit with generation in
// (gen, t.Generation()], oldest first, and reports whether the log still
// covers that window. ok is false when gen predates the retained history
// (ring eviction) or a shape-changing CopyFrom happened since; callers
// must then rebuild from scratch — an invalidated window means "history
// lost", never "no edits". A true result with an empty slice means the
// table is unchanged. Row inserts and deletes are ordinary log entries:
// consumers replay them through RowRemap instead of rebuilding.
//
// Cost is O(1 + |edits returned|): retained entries carry non-decreasing
// generations in ring order (batched edits share one), so the window is
// found by walking back from the newest entry instead of scanning the
// whole ring — incremental consumers (scan indexes, live violation
// lists, statistics syncs, CopyFrom) typically ask for a handful of
// edits out of a full ring on every evaluation.
//
// Calling EditsSince while an ApplyBatch bracket is open is outside the
// contract: the batch generation is already minted, so a mid-batch
// sync would anchor past edits the batch has yet to log.
func (t *Table) EditsSince(gen uint64, buf []Edit) ([]Edit, bool) {
	if gen < t.minDeltaGen {
		return buf, false
	}
	if gen >= t.gen {
		return buf, true
	}
	// Retained entries carry non-decreasing generations, so the window is
	// a suffix of the ring: walk back from the newest entry. The ring
	// length is a power of two, so positions wrap by masking.
	mask := len(t.edits) - 1
	n := 0
	for n < t.editLen && t.edits[(t.editHead-1-n)&mask].Gen > gen {
		n++
	}
	first := (t.editHead - n) & mask
	if tail := len(t.edits) - first; n > tail {
		buf = append(buf, t.edits[first:]...)
		return append(buf, t.edits[:n-tail]...), true
	}
	return append(buf, t.edits[first:first+n]...), true
}

// New creates an empty table with the given schema.
func New(schema *Schema) *Table {
	return &Table{schema: schema, id: tableIDs.Add(1)}
}

// FromStrings builds a table by parsing a rectangular grid of raw strings
// with ParseValue. It is the main constructor for literals in tests,
// examples and embedded datasets.
func FromStrings(names []string, grid [][]string) (*Table, error) {
	schema, err := SchemaOf(names...)
	if err != nil {
		return nil, err
	}
	t := New(schema)
	for i, rawRow := range grid {
		if len(rawRow) != len(names) {
			return nil, fmt.Errorf("table: row %d has %d values, want %d", i, len(rawRow), len(names))
		}
		row := make([]Value, len(rawRow))
		for j, raw := range rawRow {
			row[j] = ParseValue(raw)
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustFromStrings is FromStrings that panics on error.
func MustFromStrings(names []string, grid [][]string) *Table {
	t, err := FromStrings(names, grid)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return t.schema.Len() }

// NumCells returns rows × columns — the number of Shapley players in the
// cell game.
func (t *Table) NumCells() int { return len(t.rows) * t.schema.Len() }

// Append validates and adds a row at the end of the table. The slice is
// copied. The insert is a typed log entry, so incremental consumers
// extend their state by exactly one row instead of rebuilding.
func (t *Table) Append(row []Value) error {
	if err := t.schema.Validate(row); err != nil {
		return err
	}
	t.rows = append(t.rows, append([]Value(nil), row...))
	t.logStructural(EditInsert, len(t.rows)-1)
	return nil
}

// DeleteRow removes row i by the swap-delete rule: the last row moves
// into position i (when i is not already last) and the table shrinks by
// one. The rule keeps deletion O(1) and leaves every other row's index
// stable at the price of renumbering exactly one survivor; the typed
// edit log records the delete so incremental consumers retract the moved
// row's derived state and re-derive it under its new index (RowRemap).
// Cached artifacts holding CellRefs are keyed on the table generation,
// which every delete bumps, so a stale row index can never be read back
// silently. Panics when i is out of range, matching slice semantics.
func (t *Table) DeleteRow(i int) {
	last := len(t.rows) - 1
	if i < 0 || i > last {
		panic(fmt.Sprintf("table: DeleteRow(%d) out of range 0..%d", i, last))
	}
	// The swap parks the deleted row's storage beyond the new length,
	// keeping the slot pooled for a future shape-matching CopyFrom.
	t.rows[i], t.rows[last] = t.rows[last], t.rows[i]
	t.rows = t.rows[:last]
	t.logStructural(EditDelete, i)
}

// ApplyBatch runs fn with the table in batch mode: every mutation fn
// applies (Set, Append, DeleteRow, nested batches) shares one
// generation, logged as a contiguous run of typed edits, so incremental
// consumers replay the whole transaction as a single delta and
// generation-keyed caches invalidate exactly once. fn's error is
// returned as-is; mutations already applied when fn fails stay applied —
// the bracket groups generations, not atomicity, so callers validate
// before mutating. Incremental consumers must not sync against the table
// while the bracket is open (see EditsSince).
func (t *Table) ApplyBatch(fn func(*Table) error) error {
	t.beginBatch()
	defer t.endBatch()
	return fn(t)
}

func (t *Table) beginBatch() {
	t.batchDepth++
	if t.batchDepth == 1 {
		t.gen++
	}
}

func (t *Table) endBatch() { t.batchDepth-- }

// bump advances the generation for one mutation. Inside a batch the
// generation already moved when the outermost bracket opened and holds
// for the whole batch.
func (t *Table) bump() {
	if t.batchDepth == 0 {
		t.gen++
	}
}

// Generation returns the table's mutation counter. Any mutation — cell
// set, row insert or delete, batch — bumps it, so (pointer, generation)
// identifies one immutable snapshot of the contents — the invalidation
// key used by scan caches.
func (t *Table) Generation() uint64 { return t.gen }

// Get returns the value at (row, col). It panics on out-of-range indexes,
// matching slice semantics.
func (t *Table) Get(row, col int) Value { return t.rows[row][col] }

// GetRef returns the value at a cell reference.
func (t *Table) GetRef(ref CellRef) Value { return t.rows[ref.Row][ref.Col] }

// GetByName returns the value at (row, attribute name).
func (t *Table) GetByName(row int, name string) Value {
	return t.rows[row][t.schema.MustIndex(name)]
}

// Set overwrites the value at (row, col).
func (t *Table) Set(row, col int, v Value) {
	t.rows[row][col] = v
	t.logEdit(row, col)
}

// SetRef overwrites the value at a cell reference.
func (t *Table) SetRef(ref CellRef, v Value) {
	t.rows[ref.Row][ref.Col] = v
	t.logEdit(ref.Row, ref.Col)
}

// SetByName overwrites the value at (row, attribute name).
func (t *Table) SetByName(row int, name string, v Value) {
	col := t.schema.MustIndex(name)
	t.rows[row][col] = v
	t.logEdit(row, col)
}

// Row returns a copy of the i-th row.
func (t *Table) Row(i int) []Value { return append([]Value(nil), t.rows[i]...) }

// RowView returns the i-th row without copying. The returned slice aliases
// the table's storage and must be treated as read-only; it is intended for
// hot evaluation loops such as the DC interpreter.
func (t *Table) RowView(i int) []Value { return t.rows[i] }

// Clone deep-copies the table. The schema is shared (schemas are immutable
// after construction).
func (t *Table) Clone() *Table {
	rows := make([][]Value, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]Value(nil), r...)
	}
	return &Table{schema: t.schema, rows: rows, id: tableIDs.Add(1)}
}

// CopyFrom overwrites the table's contents with src's, reusing the existing
// row storage when the shape matches. A shape-matching copy records every
// cell whose content actually changed in the edit log, in row-major
// order, so scan indexes bound to this table catch up with per-bucket
// deltas instead of rebuilding; a shape change resets the log. It is the
// refresh step of the in-place repair protocol (repair.ScratchRepairer):
// steady-state refreshes of a pooled work table allocate nothing.
//
// The delta-refresh contract: after a copy the table remembers src (by an
// id that does not keep src alive) and both generations. The next
// shape-matching CopyFrom from the same src compares only the cells in
// src.EditsSince(srcGen) ∪ t.EditsSince(ownGen) — the cells either side
// wrote since — because every other cell still holds the value it was
// copied with. It falls back to comparing every cell when src is a
// different table, the schema changed, either window is lost (ring
// overrun, shape-changing copy) or holds a row insert or delete, or an
// ApplyBatch bracket is open on either side, and when the windows span
// more generations than an eighth of the table's cells, where comparing
// every cell is cheaper. Both paths log every changed cell in row-major
// order; only the full compare also re-logs unchanged NaN cells.
func (t *Table) CopyFrom(src *Table) {
	if t == src {
		return
	}
	if t.schema == src.schema || (t.schema != nil && t.schema.Equal(src.schema)) {
		if len(t.rows) == len(src.rows) {
			if !t.copyDelta(src) {
				for i, srcRow := range src.rows {
					row := t.rows[i]
					for j, v := range srcRow {
						// Exact (kind-sensitive) comparison: SameContent
						// unifies numeric kinds, but downstream hash-join
						// keys do not, so the copy must be
						// representation-faithful. NaN compares unequal to
						// itself and is conservatively re-copied.
						if row[j] != v {
							row[j] = v
							t.logEdit(i, j)
						}
					}
				}
			}
			t.schema = src.schema
			t.noteCopy(src)
			return
		}
	}
	t.schema = src.schema
	if cap(t.rows) >= len(src.rows) {
		t.rows = t.rows[:len(src.rows)]
	} else {
		t.rows = make([][]Value, len(src.rows))
	}
	for i, srcRow := range src.rows {
		if cap(t.rows[i]) >= len(srcRow) {
			t.rows[i] = t.rows[i][:len(srcRow)]
			copy(t.rows[i], srcRow)
		} else {
			t.rows[i] = append([]Value(nil), srcRow...)
		}
	}
	t.bump()
	t.invalidateEdits()
	t.noteCopy(src)
}

// copyDelta is CopyFrom's delta refresh (see there): it copies and logs
// the cells either side edited since the last copy from src, in row-major
// order, and reports false — having changed nothing — when the windows
// cannot be trusted and every cell must be compared.
func (t *Table) copyDelta(src *Table) bool {
	if src.id == 0 || t.copySrc != src.id || t.schema != src.schema || t.batchDepth != 0 || src.batchDepth != 0 {
		return false
	}
	// Each generation is at least one edit; past an eighth of the cells,
	// sorting and visiting the window costs more than comparing them all.
	if (src.gen-t.copySrcGen)+(t.gen-t.copyOwnGen) > uint64(len(t.rows)*t.schema.Len()/8) {
		return false
	}
	edits, ok := src.EditsSince(t.copySrcGen, t.copyBuf[:0])
	if ok {
		edits, ok = t.EditsSince(t.copyOwnGen, edits)
	}
	t.copyBuf = edits
	if !ok || Structural(edits) {
		return false
	}
	slices.SortFunc(edits, func(a, b Edit) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	})
	for k, e := range edits {
		if k > 0 && e.Row == edits[k-1].Row && e.Col == edits[k-1].Col {
			continue
		}
		if v := src.rows[e.Row][e.Col]; t.rows[e.Row][e.Col] != v {
			t.rows[e.Row][e.Col] = v
			t.logEdit(e.Row, e.Col)
		}
	}
	return true
}

// noteCopy records src and both generations for the next CopyFrom's delta
// refresh. Inside an open batch later edits share the current generation
// and would hide from EditsSince, so nothing is recorded there.
func (t *Table) noteCopy(src *Table) {
	if t.batchDepth != 0 || src.batchDepth != 0 {
		t.copySrc = 0
		return
	}
	t.copySrc, t.copySrcGen, t.copyOwnGen = src.id, src.gen, t.gen
}

// Equal reports whether two tables have equal schemas and cell-wise
// SameContent values.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || len(t.rows) != len(o.rows) {
		return false
	}
	for i := range t.rows {
		for j := range t.rows[i] {
			if !t.rows[i][j].SameContent(o.rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Cells returns every cell reference in vectorization order: row-major,
// exactly the x_T order of Example 2.5.
func (t *Table) Cells() []CellRef {
	refs := make([]CellRef, 0, t.NumCells())
	for i := range t.rows {
		for j := range t.rows[i] {
			refs = append(refs, CellRef{Row: i, Col: j})
		}
	}
	return refs
}

// VecIndex maps a cell reference to its position in the vectorized table.
func (t *Table) VecIndex(ref CellRef) int { return ref.Row*t.schema.Len() + ref.Col }

// RefAt maps a vectorized position back to a cell reference.
func (t *Table) RefAt(index int) CellRef {
	m := t.schema.Len()
	return CellRef{Row: index / m, Col: index % m}
}

// RefName renders a cell reference with the attribute name, e.g.
// "t5[Country]" (rows are 1-based in the paper's notation).
func (t *Table) RefName(ref CellRef) string {
	return fmt.Sprintf("t%d[%s]", ref.Row+1, t.schema.Col(ref.Col).Name)
}

// ParseRefName parses the "t<row>[<Attr>]" notation back into a CellRef.
func (t *Table) ParseRefName(s string) (CellRef, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "t") || !strings.HasSuffix(s, "]") {
		return CellRef{}, fmt.Errorf("table: cannot parse cell reference %q (want t<row>[<Attr>])", s)
	}
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return CellRef{}, fmt.Errorf("table: cannot parse cell reference %q: no '['", s)
	}
	var row int
	if _, err := fmt.Sscanf(s[1:open], "%d", &row); err != nil {
		return CellRef{}, fmt.Errorf("table: bad row in cell reference %q: %w", s, err)
	}
	if row < 1 || row > t.NumRows() {
		return CellRef{}, fmt.Errorf("table: row %d out of range 1..%d", row, t.NumRows())
	}
	attr := s[open+1 : len(s)-1]
	col, ok := t.schema.Index(attr)
	if !ok {
		return CellRef{}, fmt.Errorf("table: no attribute %q", attr)
	}
	return CellRef{Row: row - 1, Col: col}, nil
}

// String renders the table as an aligned text grid, for logs and the CLI.
func (t *Table) String() string {
	widths := make([]int, t.NumCols())
	for j, c := range t.schema.Columns() {
		widths[j] = len(c.Name)
	}
	cells := make([][]string, len(t.rows))
	for i, row := range t.rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	for j, c := range t.schema.Columns() {
		if j > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], c.Name)
	}
	b.WriteByte('\n')
	for j := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, cell := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
