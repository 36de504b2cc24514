package dc

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/table"
)

// Violation records one witness that a constraint is violated: the rows
// bound to t1 and t2. For single-tuple constraints Row2 equals Row1.
type Violation struct {
	Constraint *Constraint
	Row1, Row2 int
}

// String renders the violation, e.g. "C1 violated by (t3, t6)".
func (v Violation) String() string {
	if v.Row1 == v.Row2 {
		return fmt.Sprintf("%s violated by t%d", v.Constraint.ID, v.Row1+1)
	}
	return fmt.Sprintf("%s violated by (t%d, t%d)", v.Constraint.ID, v.Row1+1, v.Row2+1)
}

// SatisfiedPair reports whether the constraint body (the denied conjunction)
// holds for rows (i, j) bound to (t1, t2). Unknown predicates (null or
// incomparable operands) make the conjunction fail, so nulls never create
// violations.
func (c *Constraint) SatisfiedPair(t *table.Table, i, j int) (bool, error) {
	row1 := t.RowView(i)
	row2 := t.RowView(j)
	for _, p := range c.Preds {
		sat, known, err := p.Eval(row1, row2, t.Schema())
		if err != nil {
			return false, err
		}
		if !known || !sat {
			return false, nil
		}
	}
	return true, nil
}

// Violations scans the whole table and returns every violation of the
// constraint. Pair violations are reported once per ordered pair (i, j)
// with i != j that satisfies the body; callers that want unordered pairs
// can deduplicate with min/max. The scan is the naive O(n²) interpreted
// reference that tests hold the compiled scan (ViolationsCached) to.
func (c *Constraint) Violations(t *table.Table) ([]Violation, error) {
	var out []Violation
	if c.SingleTuple() {
		for i := 0; i < t.NumRows(); i++ {
			sat, err := c.SatisfiedPair(t, i, i)
			if err != nil {
				return nil, err
			}
			if sat {
				out = append(out, Violation{Constraint: c, Row1: i, Row2: i})
			}
		}
		return out, nil
	}
	for i := 0; i < t.NumRows(); i++ {
		for j := 0; j < t.NumRows(); j++ {
			if i == j {
				continue
			}
			sat, err := c.SatisfiedPair(t, i, j)
			if err != nil {
				return nil, err
			}
			if sat {
				out = append(out, Violation{Constraint: c, Row1: i, Row2: j})
			}
		}
	}
	return out, nil
}

// equalityJoinAttrs returns attributes A with a predicate t1.A = t2.A —
// usable as hash-join keys for the indexed scan.
func (c *Constraint) equalityJoinAttrs() []string {
	var out []string
	for _, p := range c.Preds {
		if p.Op != OpEq || p.Left.IsConst || p.Right.IsConst {
			continue
		}
		if p.Left.Attr == p.Right.Attr && p.Left.Tuple != p.Right.Tuple {
			out = append(out, p.Left.Attr)
		}
	}
	return out
}

// JoinColumns resolves the equality join attributes to column indexes;
// empty when the constraint has no usable join key. An attribute missing
// from the schema (an unvalidated constraint) yields no join key at all
// rather than a panic; the kernel compile reports the proper "attribute
// not in schema" error before any scan runs. The set planner
// (internal/dc/plan) uses the same resolution so its partition-sharing
// analysis and the executor agree exactly.
func (c *Constraint) JoinColumns(schema *table.Schema) []int {
	attrs := c.equalityJoinAttrs()
	cols := make([]int, 0, len(attrs))
	for _, a := range attrs {
		idx, ok := schema.Index(a)
		if !ok {
			return nil
		}
		cols = append(cols, idx)
	}
	return cols
}

// joinCols is JoinColumns against t's schema.
func (c *Constraint) joinCols(t *table.Table) []int {
	return c.JoinColumns(t.Schema())
}

// appendCompositeKey appends the hash-join key of row i over cols to buf:
// every join column's equality-canonical key (Value.AppendJoinKey, which
// unifies numeric kinds exactly as the = predicate does) joined with a
// separator. ok is false when any join column is null or NaN — such rows
// can never satisfy the equality predicates (NULL = x is unknown and
// NaN ≠ NaN), so they are excluded from bucketing entirely. Keying NaN
// rows into a shared bucket instead would be sound only for consumers that
// re-verify every pair; consumers that trust the partition as an equality
// grouping (the FD chase) would treat NaN rows as joined when the =
// predicate says they never are. The byte form lets
// callers probe bucket maps via the compiler's alloc-free
// map[string(bytes)] access.
func appendCompositeKey(buf []byte, t *table.Table, row int, cols []int) ([]byte, bool) {
	for n, col := range cols {
		v := t.Get(row, col)
		if v.IsNull() || v.IsNaN() {
			return buf, false
		}
		if n > 0 {
			buf = append(buf, 0x1f)
		}
		buf = v.AppendJoinKey(buf)
	}
	return buf, true
}

// bucketSet is the hash partition of one table over one join-column
// signature, maintained incrementally. Bucket slots are interned for the
// set's lifetime (an emptied bucket keeps its slot and storage), members
// lists are kept in ascending row order, and rowBucket inverts the
// partition so per-row probes and delta removals need no key computation.
type bucketSet struct {
	cols []int
	// idx maps composite key -> bucket slot; append-only until a rebuild.
	idx map[string]int
	// members[slot] lists the rows of that bucket, ascending. Only
	// members[:nSlots] are live; retired slots keep their storage for the
	// next rebuild.
	members [][]int
	nSlots  int
	// rowBucket[row] is the row's bucket slot, -1 when a null join column
	// excludes the row from the partition.
	rowBucket []int
	// stale marks the set for lazy rebuild after wholesale invalidation.
	stale bool
}

// slotFor interns key, reusing a retired members slice when one is free.
// key must be the current contents of the caller's key buffer.
func (bs *bucketSet) slotFor(key []byte) int {
	if slot, ok := bs.idx[string(key)]; ok {
		return slot
	}
	slot := bs.nSlots
	bs.nSlots++
	if slot < len(bs.members) {
		bs.members[slot] = bs.members[slot][:0]
	} else {
		bs.members = append(bs.members, nil)
	}
	bs.idx[string(key)] = slot
	return slot
}

// rebuild repartitions the whole table, reusing interned storage.
func (bs *bucketSet) rebuild(t *table.Table, keyBuf *[]byte) {
	clear(bs.idx)
	bs.nSlots = 0
	n := t.NumRows()
	if cap(bs.rowBucket) >= n {
		bs.rowBucket = bs.rowBucket[:n]
	} else {
		bs.rowBucket = make([]int, n)
	}
	for i := 0; i < n; i++ {
		key, ok := appendCompositeKey((*keyBuf)[:0], t, i, bs.cols)
		*keyBuf = key
		if !ok {
			bs.rowBucket[i] = -1
			continue
		}
		slot := bs.slotFor(key)
		bs.members[slot] = append(bs.members[slot], i)
		bs.rowBucket[i] = slot
	}
	bs.stale = false
}

// apply catches the partition up with a window of single-cell edits: only
// rows whose edited column participates in this signature move, and each
// move touches exactly the source and destination buckets — the per-bucket
// delta maintenance that keeps one-cell-per-step workloads (session edits,
// coalition walks, repair fixpoints) off the full rebuild path. Windows
// with structural edits take applyStructural instead.
func (bs *bucketSet) apply(t *table.Table, edits []table.Edit, keyBuf *[]byte) {
	for _, e := range edits {
		touched := false
		for _, c := range bs.cols {
			if c == e.Col {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		bs.moveRow(t, e.Row, keyBuf)
	}
}

// applyStructural catches the partition up with a window containing row
// inserts/deletes, decoded by rm: dead and moved origins leave their
// buckets by reverse-index lookup (no key computation), the reverse index
// resizes to the final shape, and exactly the moved-in, inserted, and
// relevantly-edited rows re-key against the final table — every other
// row's bucket and index are untouched, which keeps single-row structural
// edits O(changed rows), not O(table). reinsert is caller-pooled scratch
// for deduplicating in-place edits.
func (bs *bucketSet) applyStructural(t *table.Table, rm *table.RowRemap, keyBuf *[]byte, reinsert *[]int) {
	// Phase 1: drop every dead or moved origin from its bucket. Member
	// lists hold origin-space indexes until phase 4, so reverse-index
	// removal is exact.
	for _, o := range rm.Retract {
		if slot := bs.rowBucket[o]; slot >= 0 {
			bs.members[slot] = removeSortedRow(bs.members[slot], int(o))
		}
	}
	// Phase 2: in-place cell edits on surviving unmoved rows whose column
	// participates in this signature leave their bucket now and re-key in
	// phase 4. rowBucket doubles as the dedup sentinel (-2 = pending).
	ri := (*reinsert)[:0]
	for _, e := range rm.Sets {
		if !rm.CleanSet(e) {
			continue
		}
		touched := false
		for _, c := range bs.cols {
			if c == e.Col {
				touched = true
				break
			}
		}
		if !touched || bs.rowBucket[e.Row] == -2 {
			continue
		}
		if slot := bs.rowBucket[e.Row]; slot >= 0 {
			bs.members[slot] = removeSortedRow(bs.members[slot], e.Row)
		}
		bs.rowBucket[e.Row] = -2
		ri = append(ri, e.Row)
	}
	*reinsert = ri
	// Phase 3: resize the reverse index to the final shape. Survivors keep
	// their slots; every position past the old count is in rm.Derive and
	// overwritten in phase 4.
	n := rm.NewRows
	if cap(bs.rowBucket) >= n {
		bs.rowBucket = bs.rowBucket[:n]
	} else {
		grown := make([]int, n)
		copy(grown, bs.rowBucket)
		bs.rowBucket = grown
	}
	// Phase 4: key every re-derived position and edited row from the
	// final table.
	for _, p := range rm.Derive {
		bs.insertRow(t, int(p), keyBuf)
	}
	for _, r := range ri {
		bs.insertRow(t, r, keyBuf)
	}
}

// moveRow re-buckets one row against the table's current contents.
func (bs *bucketSet) moveRow(t *table.Table, row int, keyBuf *[]byte) {
	if old := bs.rowBucket[row]; old >= 0 {
		bs.members[old] = removeSortedRow(bs.members[old], row)
	}
	bs.insertRow(t, row, keyBuf)
}

// insertRow keys row against the table's current contents and inserts it
// into its bucket — the second half of moveRow, for rows already removed.
func (bs *bucketSet) insertRow(t *table.Table, row int, keyBuf *[]byte) {
	key, ok := appendCompositeKey((*keyBuf)[:0], t, row, bs.cols)
	*keyBuf = key
	if !ok {
		bs.rowBucket[row] = -1
		return
	}
	slot := bs.slotFor(key)
	bs.members[slot] = insertSortedRow(bs.members[slot], row)
	bs.rowBucket[row] = slot
}

// removeSortedRow deletes row from the ascending slice in place.
func removeSortedRow(s []int, row int) []int {
	i := sort.SearchInts(s, row)
	if i < len(s) && s[i] == row {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// insertSortedRow inserts row into the ascending slice, keeping order.
func insertSortedRow(s []int, row int) []int {
	i := sort.SearchInts(s, row)
	if i < len(s) && s[i] == row {
		return s
	}
	return slices.Insert(s, i, row)
}

// ScanIndex caches the hash partitions that indexed violation scans build,
// keyed on the table's (pointer, generation) snapshot and the join-column
// signature. Repeated scans of an unchanged table — every constraint of a
// set, every rule of a repair pass, the final fixpoint verification —
// reuse the buckets instead of recomputing them from zero. When the bound
// table's generation moves, the index first tries to catch up from the
// table's edit log (table.EditsSince): a single-cell edit then rebuilds
// only the buckets whose composite key involves the edited column, and only
// the two buckets the row moves between; a structural window (row
// inserts/deletes) is decoded once through a table.RowRemap and replayed
// against exactly the retracted origins and re-derived positions.
// Wholesale invalidation (a different table, a schema switch, or a log
// overrun) falls back to lazy full rebuilds.
//
// Every production violation check — AppendViolations, ViolatesRowCached,
// ViolationPairsForRow and the LiveViolationSet built on top — runs the
// compiled Kernel behind a ScanIndex; the interpreted Violations and
// SatisfiedPair are the reference tests hold it to.
//
// A ScanIndex is confined to one goroutine (typically one repair run); the
// zero value is NOT ready to use — construct with NewScanIndex.
type ScanIndex struct {
	tbl    *table.Table
	schema *table.Schema
	gen    uint64
	// perCols maps column signature -> incrementally-maintained partition.
	perCols map[string]*bucketSet
	// ordered holds perCols' values in insertion order; sync iterates it so
	// delta replay and invalidation sweep the partitions deterministically.
	ordered []*bucketSet
	// colsOf memoizes each constraint's resolved join columns, their
	// signature, and the compiled predicate kernel: all three depend only
	// on the constraint and the schema, and the per-row hot loops below
	// would otherwise re-derive them per call.
	colsOf  map[*Constraint]colsEntry
	editBuf []table.Edit
	keyBuf  []byte
	// rows is the bound table's row count at generation gen — the origin
	// space a structural edit window is decoded against. remap and
	// reinsertBuf are that decode's pooled scratch.
	rows        int
	remap       table.RowRemap
	reinsertBuf []int
	// alive is the shared survivor mask for columnar bucket filtering;
	// allRows is 0..rows-1, the candidates of a constraint with no join key.
	alive   []bool
	allRows []int
	// plan is the constraint-set plan in effect, nil for unplanned
	// execution. pre/preOrdered hold the plan's materialized pre-filter
	// bitmaps per constraint; the slice gives sync a deterministic sweep.
	plan       SetPlanner
	pre        map[*Constraint]*prefilter
	preOrdered []*prefilter
}

type colsEntry struct {
	cols []int
	sig  string
	// kern is the constraint body compiled against the table's schema
	// (in plan order when planned); kernErr records a compile failure
	// (unknown attribute), surfaced on use with the interpreter's error
	// text.
	kern    *Kernel
	kernErr error
	// scanCols/scanSig name the partition backing pair scans and point
	// probes: the exact join columns, or the plan's shared (possibly
	// coarser) subset. resid is the kernel run inside bucket pair loops —
	// the full kernel, minus any predicates the plan pushed into
	// pre-filter bitmaps.
	scanCols []int
	scanSig  string
	resid    *Kernel
}

// NewScanIndex returns an empty scan cache.
func NewScanIndex() *ScanIndex {
	return &ScanIndex{
		perCols: make(map[string]*bucketSet),
		colsOf:  make(map[*Constraint]colsEntry),
		pre:     make(map[*Constraint]*prefilter),
	}
}

// maxColsEntries bounds the per-constraint memo of a long-lived index;
// beyond it (a server session cycling AddDC/RemoveDC forever) the memo is
// dropped rather than pinning a compiled kernel for every constraint ever
// queried.
const maxColsEntries = 256

// entryFor resolves (memoized) c's join columns, signature and compiled
// kernel over t's schema. Safe across generations of one table — schemas
// are immutable — but invalidated when the index moves to a different
// table or the bound table's schema is swapped by a shape-changing
// CopyFrom.
func (ix *ScanIndex) entryFor(c *Constraint, t *table.Table) colsEntry {
	ix.sync(t)
	if e, ok := ix.colsOf[c]; ok {
		return e
	}
	if len(ix.colsOf) >= maxColsEntries {
		clear(ix.colsOf)
	}
	cols := c.joinCols(t)
	e := colsEntry{cols: cols, sig: colsSignature(cols)}
	e.kern, e.kernErr = compileKernel(c, t.Schema())
	e.scanCols, e.scanSig = e.cols, e.sig
	e.resid = e.kern
	if ix.plan != nil && e.kernErr == nil && ix.plan.PlanSchema() == t.Schema() {
		if ch, ok := ix.plan.ConstraintPlan(c); ok {
			ix.applyChoice(c, t, &e, ch)
		}
	}
	ix.colsOf[c] = e
	return e
}

// sync points the index at t, catching up from the table's edit log when
// possible and invalidating wholesale otherwise.
func (ix *ScanIndex) sync(t *table.Table) {
	if ix.tbl == t && ix.schema == t.Schema() {
		if ix.gen == t.Generation() {
			return
		}
		ix.editBuf = ix.editBuf[:0]
		if edits, ok := t.EditsSince(ix.gen, ix.editBuf); ok {
			ix.editBuf = edits
			if table.Structural(edits) {
				// Decode the structural window once against the row count
				// the partitions were built over; a decode that disagrees
				// with the live table means the window cannot be trusted,
				// so fall through to wholesale invalidation.
				ix.remap.Resolve(edits, ix.rows)
				if ix.remap.NewRows == t.NumRows() {
					for _, bs := range ix.ordered {
						if !bs.stale {
							bs.applyStructural(t, &ix.remap, &ix.keyBuf, &ix.reinsertBuf)
						}
					}
					for _, pf := range ix.preOrdered {
						if !pf.stale {
							pf.applyStructural(t, &ix.remap)
						}
					}
					ix.gen = t.Generation()
					ix.rows = t.NumRows()
					return
				}
			} else {
				for _, bs := range ix.ordered {
					if !bs.stale {
						bs.apply(t, edits, &ix.keyBuf)
					}
				}
				for _, pf := range ix.preOrdered {
					if !pf.stale {
						pf.apply(t, edits)
					}
				}
				ix.gen = t.Generation()
				ix.rows = t.NumRows()
				return
			}
		}
	} else if ix.schema != t.Schema() {
		// Column resolutions and compiled kernels are schema-scoped, not
		// table-scoped: pointing the index at a clone (which shares its
		// source's schema) must not recompile every constraint per run.
		// Pre-filter kernels are schema-scoped too.
		clear(ix.colsOf)
		ix.clearPrefilters()
	}
	ix.tbl = t
	ix.schema = t.Schema()
	ix.gen = t.Generation()
	ix.rows = t.NumRows()
	for _, bs := range ix.ordered {
		bs.stale = true
	}
	for _, pf := range ix.preOrdered {
		pf.stale = true
	}
}

// bucketSetFor returns the synced partition over c's exact join-column
// signature, or nil when the constraint has no equality join key. Group
// enumeration (the FD chase) must use this partition: its buckets are the
// equivalence classes of the composite join key, a semantics a plan-shared
// coarser partition does not provide.
func (ix *ScanIndex) bucketSetFor(c *Constraint, t *table.Table) *bucketSet {
	e := ix.entryFor(c, t)
	return ix.bucketSetBySig(e.cols, e.sig, t)
}

// scanBucketSetFor returns the synced pair-scan partition for an entry:
// the plan-shared partition when one is assigned, the exact partition
// otherwise. Sound for pair scans and point probes only — every
// candidate pair is re-checked by the kernel.
func (ix *ScanIndex) scanBucketSetFor(e colsEntry, t *table.Table) *bucketSet {
	return ix.bucketSetBySig(e.scanCols, e.scanSig, t)
}

// bucketSetBySig returns the synced partition for a column signature,
// creating it on first use (pre-sized from the plan's observed slot
// count when available) and feeding rebuild cardinalities back.
func (ix *ScanIndex) bucketSetBySig(cols []int, sig string, t *table.Table) *bucketSet {
	if len(cols) == 0 {
		return nil
	}
	bs, ok := ix.perCols[sig]
	if !ok {
		hint := 0
		if ix.plan != nil {
			hint, _ = ix.plan.PartitionHint(sig)
		}
		bs = &bucketSet{cols: cols, idx: make(map[string]int, hint), stale: true}
		ix.perCols[sig] = bs
		ix.ordered = append(ix.ordered, bs)
	}
	if bs.stale {
		bs.rebuild(t, &ix.keyBuf)
		if ix.plan != nil {
			ix.plan.RecordPartition(sig, bs.nSlots)
		}
	}
	return bs
}

// colsSignature encodes a column-index list as an interned map key; the
// varint bytes build in a stack buffer and the returned string is the
// process-wide shared copy, so steady-state calls allocate nothing.
func colsSignature(cols []int) string {
	var arr [32]byte
	b := arr[:0]
	for _, c := range cols {
		for c >= 0x80 {
			b = append(b, byte(c)|0x80)
			c >>= 7
		}
		b = append(b, byte(c))
	}
	return internSignature(b)
}

// ViolationsCached returns every violation of the constraint through ix;
// see AppendViolations.
func (c *Constraint) ViolationsCached(t *table.Table, ix *ScanIndex) ([]Violation, error) {
	return c.AppendViolations(t, ix, nil)
}

// AppendViolations appends every violation of the constraint to out and
// returns the extended slice, so hot loops (repair passes re-scanning after
// each fix) can reuse one buffer across calls. Output order and contents
// match Violations exactly. Pairs are checked by the compiled columnar
// kernel inside the hash buckets of the composite equality join key when
// one exists (e.g. t1.Team = t2.Team ∧ t1.Year = t2.Year buckets on
// (Team, Year)), turning the common FD-shaped constraint from O(n²) into
// O(n + Σ bucket²); ix keeps the buckets across scans of the same table.
// ix is required.
func (c *Constraint) AppendViolations(t *table.Table, ix *ScanIndex, out []Violation) ([]Violation, error) {
	e := ix.entryFor(c, t)
	if e.kernErr != nil {
		return out, e.kernErr
	}
	return ix.appendScan(c, e, t, out), nil
}

// appendScan is the serial violation scan shared by AppendViolations and
// LiveViolationSet.derive: single-tuple constraints row by row, constraints
// with no join key over every ordered pair, all others bucket by bucket
// behind the plan's pre-filters. The appended pairs are sorted by (Row1,
// Row2). e must carry a compiled kernel.
func (ix *ScanIndex) appendScan(c *Constraint, e colsEntry, t *table.Table, out []Violation) []Violation {
	n := t.NumRows()
	if c.SingleTuple() {
		for r := 0; r < n; r++ {
			if e.kern.Pair(t, r, r) {
				out = append(out, Violation{Constraint: c, Row1: r, Row2: r})
			}
		}
		return out
	}
	sc := ix.bucketScan(c, e, t)
	bs := ix.scanBucketSetFor(e, t)
	if bs == nil {
		// One bucket holding every row, scanned in row order: already sorted.
		return scanBucket(&sc, t, ix.allRowsFor(n), &ix.alive, out)
	}
	base := len(out)
	for _, rows := range bs.members[:bs.nSlots] {
		out = scanBucket(&sc, t, rows, &ix.alive, out)
	}
	slices.SortFunc(out[base:], violationOrder)
	return out
}

// bucketScan returns the bucket pair enumeration of c: the residual kernel
// and, under a plan, c's pre-filter bitmaps synced to t.
func (ix *ScanIndex) bucketScan(c *Constraint, e colsEntry, t *table.Table) bucketScan {
	sc := bucketScan{kern: e.resid, c: c}
	if pf := ix.prefilterFor(c, t); pf != nil {
		sc.pass0, sc.pass1 = pf.pass0, pf.pass1
	}
	return sc
}

// partners returns the rows that can pair with row i under a pair
// constraint: i's scan bucket (only bucket partners can co-satisfy the
// equality predicates), every row when the constraint has no join key, or
// nil when i's join key is null or NaN — a null key makes every equality
// predicate unknown and NaN never satisfies =, so i pairs with nothing.
// (The scan partition's columns are a subset of the exact join columns, so
// its exclusion implies an unsatisfiable equality predicate just the same.)
// The slice aliases index storage and includes i itself.
func (ix *ScanIndex) partners(e colsEntry, t *table.Table, i int) []int {
	bs := ix.scanBucketSetFor(e, t)
	if bs == nil {
		return ix.allRowsFor(t.NumRows())
	}
	if slot := bs.rowBucket[i]; slot >= 0 {
		return bs.members[slot]
	}
	return nil
}

// allRowsFor returns 0..n-1: the one bucket of a constraint with no join
// key.
func (ix *ScanIndex) allRowsFor(n int) []int {
	if len(ix.allRows) != n {
		ix.allRows = ix.allRows[:0]
		for j := 0; j < n; j++ {
			ix.allRows = append(ix.allRows, j)
		}
	}
	return ix.allRows
}

// ViolatesRowCached reports whether row i participates in any violation of
// the constraint: as the single tuple for single-tuple DCs, or bound to
// either t1 or t2 against any other row for pair DCs. This is the "tuple t
// has a contradiction according to C" primitive of the paper's Algorithm 1.
// Only the row's hash bucket is checked when the constraint has equality
// join attributes, so the per-row check costs O(bucket) instead of O(n),
// and the incrementally-maintained reverse index makes the bucket lookup
// key-free. ix is required.
func (c *Constraint) ViolatesRowCached(t *table.Table, i int, ix *ScanIndex) (bool, error) {
	e := ix.entryFor(c, t)
	if e.kernErr != nil {
		return false, e.kernErr
	}
	if c.SingleTuple() {
		return e.kern.Pair(t, i, i), nil
	}
	for _, j := range ix.partners(e, t, i) {
		if j != i && (e.kern.Pair(t, i, j) || e.kern.Pair(t, j, i)) {
			return true, nil
		}
	}
	return false, nil
}

// ViolationPairsForRow counts the ordered violating pairs row i
// participates in under the constraint: for pair DCs, the number of (i, j)
// and (j, i) bindings with j ≠ i that satisfy the denied conjunction; for
// single-tuple DCs, 1 when the row itself violates. Like
// ViolatesRowCached, only the row's hash bucket is scanned when the
// constraint has equality join keys. ix is required.
func (c *Constraint) ViolationPairsForRow(t *table.Table, i int, ix *ScanIndex) (int, error) {
	e := ix.entryFor(c, t)
	if e.kernErr != nil {
		return 0, e.kernErr
	}
	if c.SingleTuple() {
		if e.kern.Pair(t, i, i) {
			return 1, nil
		}
		return 0, nil
	}
	n := 0
	for _, j := range ix.partners(e, t, i) {
		if j == i {
			continue
		}
		if e.kern.Pair(t, i, j) {
			n++
		}
		if e.kern.Pair(t, j, i) {
			n++
		}
	}
	return n, nil
}

// Consistent reports whether the table satisfies every constraint.
func Consistent(cs []*Constraint, t *table.Table) (bool, error) {
	ix := NewScanIndex()
	for _, c := range cs {
		vs, err := c.ViolationsCached(t, ix)
		if err != nil {
			return false, err
		}
		if len(vs) > 0 {
			return false, nil
		}
	}
	return true, nil
}

// ValidateSet validates every constraint against a schema and checks ID
// uniqueness.
func ValidateSet(cs []*Constraint, schema *table.Schema) error {
	seen := make(map[string]bool)
	for _, c := range cs {
		if err := c.Validate(schema); err != nil {
			return err
		}
		if c.ID != "" {
			if seen[c.ID] {
				return fmt.Errorf("dc: duplicate constraint ID %q", c.ID)
			}
			seen[c.ID] = true
		}
	}
	return nil
}

// ByID returns the constraint with the given ID, or nil.
func ByID(cs []*Constraint, id string) *Constraint {
	for _, c := range cs {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Without returns a new slice with the identified constraint removed.
func Without(cs []*Constraint, id string) []*Constraint {
	out := make([]*Constraint, 0, len(cs))
	for _, c := range cs {
		if c.ID != id {
			out = append(out, c)
		}
	}
	return out
}
