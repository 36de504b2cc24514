package table

import (
	"math/rand"
	"sort"
)

// Distribution is the empirical distribution of non-null values observed in
// one column. It backs two needs of the reproduction:
//
//   - the repair rules of the paper's Algorithm 1, which assign
//     "the most common value" (Mode) and "the most probable value given
//     another attribute" (conditional mode); and
//   - the Strumbelj–Kononenko sampling step of Example 2.5, which replaces
//     out-of-coalition cells with draws from their column distribution.
//
// Values are kept in first-observed order so that iteration and tie-breaks
// are deterministic.
//
// A Distribution is reusable: Reset clears the observations while keeping
// the value interning table, so pooled statistics rebuilt over successive
// repair states (repair.PlannedRepairer) allocate nothing once every value
// in the column's domain has been seen at least once. All query methods see
// only values observed since the last Reset, exactly as a fresh
// Distribution would.
type Distribution struct {
	// index interns Value.Key() -> slot. It is append-only over the
	// distribution's lifetime; slots for values absent from the current
	// epoch simply hold a zero count and are not in active.
	index     map[string]int
	slotValue []Value
	slotCount []int
	// active lists the slots observed this epoch, in first-observed order —
	// the iteration order of every query method.
	active []int
	total  int
	keyBuf []byte
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{index: make(map[string]int)}
}

// Reset forgets every observation while retaining interned values, so a
// pooled distribution can be rebuilt without reallocating.
func (d *Distribution) Reset() {
	for _, s := range d.active {
		d.slotCount[s] = 0
	}
	d.active = d.active[:0]
	d.total = 0
}

// Observe adds one occurrence of v. Nulls are ignored: a null carries no
// evidence about the column's domain.
func (d *Distribution) Observe(v Value) {
	if v.IsNull() {
		return
	}
	d.keyBuf = v.AppendKey(d.keyBuf[:0])
	s, ok := d.index[string(d.keyBuf)] // alloc-free map probe
	if !ok {
		s = len(d.slotValue)
		d.index[string(d.keyBuf)] = s
		d.slotValue = append(d.slotValue, v)
		d.slotCount = append(d.slotCount, 0)
	}
	if d.slotCount[s] == 0 {
		d.active = append(d.active, s)
	}
	d.slotCount[s]++
	d.total++
}

// Total returns the number of observed (non-null) occurrences.
func (d *Distribution) Total() int { return d.total }

// Support returns the distinct observed values in first-observed order.
func (d *Distribution) Support() []Value {
	out := make([]Value, 0, len(d.active))
	for _, s := range d.active {
		out = append(out, d.slotValue[s])
	}
	return out
}

// Count returns how many times v was observed.
func (d *Distribution) Count(v Value) int {
	if d.total == 0 {
		// Also keeps every query method on an empty distribution free of
		// keyBuf writes, so the shared emptyDist is truly read-only.
		return 0
	}
	d.keyBuf = v.AppendKey(d.keyBuf[:0])
	if s, ok := d.index[string(d.keyBuf)]; ok {
		return d.slotCount[s]
	}
	return 0
}

// Prob returns the empirical probability of v.
func (d *Distribution) Prob(v Value) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.Count(v)) / float64(d.total)
}

// Mode returns the most frequent value, i.e. argmax_c P[col = c]. Ties are
// broken toward the earliest-observed value so repairs are deterministic.
// ok is false when the distribution is empty.
func (d *Distribution) Mode() (v Value, ok bool) {
	best := -1
	for _, s := range d.active {
		if best < 0 || d.slotCount[s] > d.slotCount[best] {
			best = s
		}
	}
	if best < 0 {
		return Null(), false
	}
	return d.slotValue[best], true
}

// Sample draws a value proportionally to its observed frequency.
// ok is false when the distribution is empty.
func (d *Distribution) Sample(rng *rand.Rand) (v Value, ok bool) {
	if d.total == 0 {
		return Null(), false
	}
	target := rng.Intn(d.total)
	for _, s := range d.active {
		if target < d.slotCount[s] {
			return d.slotValue[s], true
		}
		target -= d.slotCount[s]
	}
	return d.slotValue[d.active[len(d.active)-1]], true // unreachable; defensive
}

// SampleOther draws a value different from exclude when the support allows
// it; if exclude is the only observed value, it is returned. This implements
// the "replaced with random value" perturbation of Example 2.5 in a way that
// actually perturbs whenever possible.
func (d *Distribution) SampleOther(rng *rand.Rand, exclude Value) (Value, bool) {
	if d.total == 0 {
		return Null(), false
	}
	d.keyBuf = exclude.AppendKey(d.keyBuf[:0])
	exSlot, has := d.index[string(d.keyBuf)]
	remaining := d.total
	if has {
		remaining -= d.slotCount[exSlot]
	}
	if remaining <= 0 {
		return d.slotValue[exSlot], true
	}
	target := rng.Intn(remaining)
	for _, s := range d.active {
		if has && s == exSlot {
			continue
		}
		if target < d.slotCount[s] {
			return d.slotValue[s], true
		}
		target -= d.slotCount[s]
	}
	return Null(), false // unreachable; defensive
}

// Entries returns (value, count) pairs sorted by descending count, ties by
// first-observed order. Useful for reports.
func (d *Distribution) Entries() []struct {
	Value Value
	Count int
} {
	type entry struct {
		Value Value
		Count int
	}
	order := append([]int(nil), d.active...)
	sort.SliceStable(order, func(a, b int) bool { return d.slotCount[order[a]] > d.slotCount[order[b]] })
	out := make([]struct {
		Value Value
		Count int
	}, len(order))
	for i, s := range order {
		out[i] = entry{Value: d.slotValue[s], Count: d.slotCount[s]}
	}
	return out
}

// emptyDist is the shared read-only result for conditional lookups on a
// never-observed value. Every query method is a true read on an empty
// distribution (Count/Prob/SampleOther bail out before touching their key
// scratch), so sharing it across goroutines is safe; Observe on the shared
// instance would corrupt unrelated lookups, so it is never handed to code
// that builds distributions.
var emptyDist = NewDistribution()

// condEntry is one conditional distribution, valid for the cache build it
// was last populated in.
type condEntry struct {
	build uint64
	d     *Distribution
}

// condCache holds the lazily-built conditional distributions of one
// (given, target) column pair. Entries are interned for the lifetime of
// the Stats so rebuilds reuse their storage. The cache carries
// per-(column-pair) dirty tracking: it remembers the change epochs of its
// two columns at build time and rebuilds only when one of them moved —
// cell edits elsewhere in the table leave the pair's distributions valid
// across any number of Syncs.
type condCache struct {
	builds                  uint64 // rebuild counter; 0 = never built
	givenEpoch, targetEpoch uint64 // colEpoch values at the last build
	byKey                   map[string]*condEntry
}

// Stats holds per-column distributions and pairwise conditional
// distributions for one table snapshot. It is computed once from the dirty
// table and then queried by repair algorithms and the sampler; Reset
// re-snapshots a (possibly pooled) Stats against the table's current
// contents, reusing all interned storage, so steady-state refreshes inside
// the in-place repair protocol allocate nothing.
type Stats struct {
	schema *Schema
	cols   []*Distribution
	// cond[(a, b)] caches the distribution of column b's values among rows
	// where column a takes a given value. Built lazily per (a, b) pair and
	// kept valid until either column's change epoch moves.
	cond   map[[2]int]*condCache
	rows   [][]Value
	epoch  uint64
	keyBuf []byte

	// colEpoch[j] is the epoch at which column j's contents (values or row
	// membership) last changed — the per-(column-pair) dirty bits of the
	// conditional caches: Conditional(a, ·, b) rebuilds only when
	// colEpoch[a] or colEpoch[b] moved since its last build.
	colEpoch []uint64

	// srcTbl/srcGen identify the snapshot: the table and its generation the
	// stats were last built against. Sync uses them to catch up from the
	// table's edit log with per-column deltas instead of a full rebuild.
	srcTbl *Table
	srcGen uint64
	// editBuf, colTouched, colList and remap are Sync's pooled delta
	// scratch.
	editBuf    []Edit
	colTouched []bool
	colList    []int
	remap      RowRemap
}

// NewStats scans the table and builds column distributions. Conditional
// distributions are materialized lazily on first use.
func NewStats(t *Table) *Stats {
	s := &Stats{cond: make(map[[2]int]*condCache)}
	s.Reset(t)
	return s
}

// Reset re-snapshots the stats against t's current contents, equivalent to
// NewStats(t) but reusing every interned map and slice.
func (s *Stats) Reset(t *Table) {
	s.epoch++
	s.schema = t.Schema()
	if len(s.cols) != t.NumCols() {
		s.cols = make([]*Distribution, t.NumCols())
		for j := range s.cols {
			s.cols[j] = NewDistribution()
		}
		s.colEpoch = make([]uint64, t.NumCols())
	} else {
		for _, d := range s.cols {
			d.Reset()
		}
	}
	for j := range s.colEpoch {
		s.colEpoch[j] = s.epoch
	}
	if cap(s.rows) >= t.NumRows() {
		s.rows = s.rows[:t.NumRows()]
	} else {
		s.rows = make([][]Value, t.NumRows())
	}
	for i := 0; i < t.NumRows(); i++ {
		src := t.RowView(i)
		if cap(s.rows[i]) >= len(src) {
			s.rows[i] = s.rows[i][:len(src)]
		} else {
			s.rows[i] = make([]Value, len(src))
		}
		copy(s.rows[i], src)
		for j, v := range s.rows[i] {
			s.cols[j].Observe(v)
		}
	}
	s.srcTbl = t
	s.srcGen = t.Generation()
}

// Sync re-snapshots the stats against t's current contents, exactly like
// Reset(t), but incrementally when it can: when the stats already snapshot
// an older generation of the same table and the edit log still covers the
// gap, only the *columns the window actually changed* have their
// distributions rebuilt (a column distribution is a pure function of the
// column's contents, so rebuilding it in row order reproduces the full
// rebuild's first-observed order — the tie-break order Mode and Sample
// depend on). Structural windows ride the same path: an insert-only
// window applies per-column count deltas (appended rows observe at the
// tail, exactly where a full rebuild first sees them), while a window
// with deletes re-observes each column from the swap-remapped shadow
// rows — no per-cell copying, and first-observed order is exact by
// construction. Conditional distributions carry per-(column-pair) dirty
// bits (colEpoch) and rebuild lazily only for pairs whose columns moved.
//
// The equivalence contract — after Sync(t) every query answers exactly as
// after Reset(t), including tie-breaks and Sample draws — is fuzz-tested
// (FuzzStatsSyncEquivalence). A log overrun, a different table, or a
// schema change falls back to the full rebuild. The returned bool reports
// whether the delta path was taken (false = full rebuild), for tests and
// instrumentation.
func (s *Stats) Sync(t *Table) bool {
	if s.srcTbl != t || s.schema != t.Schema() || len(s.cols) != t.NumCols() {
		s.Reset(t)
		return false
	}
	if s.srcGen == t.Generation() {
		return true
	}
	s.editBuf = s.editBuf[:0]
	edits, ok := t.EditsSince(s.srcGen, s.editBuf)
	s.editBuf = edits
	if !ok {
		s.Reset(t)
		return false
	}
	if Structural(edits) {
		if !s.syncStructural(t, edits) {
			s.Reset(t)
			return false
		}
		s.srcGen = t.Generation()
		return true
	}
	if len(s.rows) != t.NumRows() {
		// Defensive: the row count drifted without a structural log entry.
		s.Reset(t)
		return false
	}
	if cap(s.colTouched) >= len(s.cols) {
		s.colTouched = s.colTouched[:len(s.cols)]
	} else {
		s.colTouched = make([]bool, len(s.cols))
	}
	s.colList = s.colList[:0]
	for _, e := range edits {
		if !s.colTouched[e.Col] {
			s.colTouched[e.Col] = true
			s.colList = append(s.colList, e.Col)
		}
		s.rows[e.Row][e.Col] = t.Get(e.Row, e.Col)
	}
	if len(edits) > 0 {
		s.epoch++
	}
	for _, j := range s.colList {
		s.colTouched[j] = false
		d := s.cols[j]
		d.Reset()
		for i := 0; i < t.NumRows(); i++ {
			d.Observe(t.Get(i, j))
		}
		s.colEpoch[j] = s.epoch
	}
	s.srcGen = t.Generation()
	return true
}

// syncStructural catches the stats up with a window containing row
// inserts and/or deletes. Shadow rows replay the structural transcript
// with pointer swaps (no cell copying), then refresh only the rows and
// cells RowRemap marks; distributions update by per-column deltas for
// insert-only windows and by per-column re-observation of the remapped
// shadow when deletes reshuffled row order. Returns false — caller falls
// back to Reset — when the decoded window does not land on the live
// table's shape.
func (s *Stats) syncStructural(t *Table, edits []Edit) bool {
	s.remap.Resolve(edits, len(s.rows))
	rm := &s.remap
	if rm.NewRows != t.NumRows() {
		return false
	}
	hasDelete := false
	for _, e := range edits {
		switch e.Kind {
		case EditInsert:
			// Grow the shadow by one pooled slot; its contents are stale
			// until the Derive refresh below (or it vanishes again if a
			// later delete in the window claims it).
			if len(s.rows) < cap(s.rows) {
				s.rows = s.rows[:len(s.rows)+1]
			} else {
				s.rows = append(s.rows, nil)
			}
		case EditDelete:
			hasDelete = true
			last := len(s.rows) - 1
			if e.Row < 0 || e.Row > last {
				return false
			}
			s.rows[e.Row], s.rows[last] = s.rows[last], s.rows[e.Row]
			s.rows = s.rows[:last]
		}
	}
	m := t.NumCols()
	for _, p := range rm.Derive {
		src := t.RowView(int(p))
		if cap(s.rows[p]) >= m {
			s.rows[p] = s.rows[p][:m]
		} else {
			s.rows[p] = make([]Value, m)
		}
		copy(s.rows[p], src)
	}
	for _, e := range rm.Sets {
		if rm.CleanSet(e) {
			s.rows[e.Row][e.Col] = t.Get(e.Row, e.Col)
		}
	}

	// Row membership changed in every column, so every conditional pair is
	// stale regardless of which cells moved.
	s.epoch++
	for j := range s.colEpoch {
		s.colEpoch[j] = s.epoch
	}
	if hasDelete {
		// Swap-deletes reshuffle row order, which can reorder any column's
		// first-observed sequence; re-observe them all from the remapped
		// shadow. Counts and order match a full rebuild exactly, at the
		// cost of Observe calls only — no cell copying.
		for j, d := range s.cols {
			d.Reset()
			for i := range s.rows {
				d.Observe(s.rows[i][j])
			}
		}
		return true
	}
	// Insert-only window: appended rows land at the tail, exactly where a
	// full rebuild first observes them, so count deltas preserve
	// first-observed order. Columns with in-place cell edits re-observe in
	// row order, as on the pure-cell path; the remaining columns take the
	// appended rows as pure deltas.
	if cap(s.colTouched) >= len(s.cols) {
		s.colTouched = s.colTouched[:len(s.cols)]
	} else {
		s.colTouched = make([]bool, len(s.cols))
	}
	s.colList = s.colList[:0]
	for _, e := range rm.Sets {
		if rm.CleanSet(e) && !s.colTouched[e.Col] {
			s.colTouched[e.Col] = true
			s.colList = append(s.colList, e.Col)
		}
	}
	for _, j := range s.colList {
		d := s.cols[j]
		d.Reset()
		for i := range s.rows {
			d.Observe(s.rows[i][j])
		}
	}
	for _, p := range rm.Derive {
		row := s.rows[p]
		for j, d := range s.cols {
			if !s.colTouched[j] {
				d.Observe(row[j])
			}
		}
	}
	for _, j := range s.colList {
		s.colTouched[j] = false
	}
	return true
}

// Column returns the distribution of column j.
func (s *Stats) Column(j int) *Distribution { return s.cols[j] }

// ColumnByName returns the distribution of the named column.
func (s *Stats) ColumnByName(name string) *Distribution {
	return s.cols[s.schema.MustIndex(name)]
}

// Conditional returns the distribution of column target among rows whose
// column given equals val. An empty distribution is returned when val was
// never observed in the given column; it is shared and must be treated as
// read-only.
//
// The cache is dirty-tracked per (given, target) pair: a Sync that
// touched neither column leaves the pair's distributions valid, so
// repair loops editing one column stop paying lazy rebuilds for every
// unrelated conditional they consult.
func (s *Stats) Conditional(given int, val Value, target int) *Distribution {
	key := [2]int{given, target}
	cc, ok := s.cond[key]
	if !ok {
		cc = &condCache{byKey: make(map[string]*condEntry)}
		s.cond[key] = cc
	}
	if cc.builds == 0 || cc.givenEpoch != s.colEpoch[given] || cc.targetEpoch != s.colEpoch[target] {
		cc.builds++
		for _, row := range s.rows {
			gv := row[given]
			if gv.IsNull() {
				continue
			}
			s.keyBuf = gv.AppendKey(s.keyBuf[:0])
			e, ok := cc.byKey[string(s.keyBuf)]
			if !ok {
				e = &condEntry{d: NewDistribution()}
				cc.byKey[string(s.keyBuf)] = e
			}
			if e.build != cc.builds {
				e.d.Reset()
				e.build = cc.builds
			}
			e.d.Observe(row[target])
		}
		cc.givenEpoch, cc.targetEpoch = s.colEpoch[given], s.colEpoch[target]
	}
	s.keyBuf = val.AppendKey(s.keyBuf[:0])
	if e, ok := cc.byKey[string(s.keyBuf)]; ok && e.build == cc.builds {
		return e.d
	}
	return emptyDist
}

// ConditionalMode returns argmax_c P[target = c | given = val], the repair
// value used by rules 2 and 4 of the paper's Algorithm 1. When the
// conditional distribution is empty it falls back to the unconditional mode
// of the target column.
func (s *Stats) ConditionalMode(given int, val Value, target int) (Value, bool) {
	if v, ok := s.Conditional(given, val, target).Mode(); ok {
		return v, true
	}
	return s.cols[target].Mode()
}
