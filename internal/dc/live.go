package dc

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/table"
)

// LiveViolationSet is the answer-maintenance layer of the violation index:
// where ScanIndex keeps the hash *partitions* incremental, a
// LiveViolationSet keeps the violation *lists* themselves materialized
// per (constraint, table) and maintains them under single-cell edits from
// the table's bounded edit log — the dynamic-query-answering shape of
// Berkholz/Keppeler/Schweikardt applied to the denial-constraint fragment.
//
// A cell edit retracts only the pairs involving the edited row and
// re-derives that row against its destination bucket through the compiled
// predicate kernel, so repair fixpoints and coalition walks pay per-edit
// cost for their "what is violated now?" queries instead of re-checking
// every intra-bucket pair. Edits to columns a constraint never mentions
// cost nothing. When the edit log no longer covers the gap (ring overrun,
// structural change, a different table) the affected lists fall back to a
// full re-derivation, which for large tables fans out across disjoint
// buckets on a worker pool.
//
// Lists are bit-identical to Constraint.AppendViolations output (itself
// golden-tested against the naive interpreted scan): sorted by (Row1,
// Row2), one entry per ordered violating pair.
//
// A LiveViolationSet is confined to one goroutine, like the ScanIndex it
// wraps; the worker pool inside a full derivation only ever reads.
type LiveViolationSet struct {
	ix     *ScanIndex
	tbl    *table.Table
	schema *table.Schema
	gen    uint64
	lists  map[*Constraint]*liveList
	// ordered holds lists' entries in insertion order; sync iterates it so
	// edit replay and invalidation sweep the lists deterministically. Reset
	// alongside the map at the maxLiveLists eviction.
	ordered []liveEntry
	// Workers caps the full-derivation fan-out; 0 means GOMAXPROCS
	// (clamped), unless Pool is set, whose budget then applies.
	Workers int
	// Pool, when set, supplies the goroutines of a full derivation's
	// disjoint-bucket fan-out instead of ad-hoc spawning — the session
	// engine's bounded worker pool, plugged in per run by the repair black
	// boxes (repair.PlannedRepairer). Its budget caps the fan-out.
	Pool Runner

	// Pooled scratch for delta application. rows is the bound table's row
	// count at generation gen — the origin space structural windows are
	// decoded against; remap holds that decode. deriveRows/deriveMask are
	// the structural counterpart of touchedRows/touchedMask, expressed in
	// final-position space.
	editBuf     []table.Edit
	rows        int
	remap       table.RowRemap
	touchedRows []int
	touchedMask []bool
	deriveRows  []int
	deriveMask  []bool
	newPairs    []Violation
	slotSeen    []bool
	slotOrder   []int
	// rederive's candidate masks, and 0..rows-1 for keyless constraints.
	aliveFwd, aliveRev []bool
	allRows            []int
}

// Runner abstracts a bounded worker pool (exec.Pool) without importing it,
// keeping dc below the execution layer: Map runs fn(task) for every task
// in [0, tasks) — concurrently up to Workers goroutines, the caller
// included — and returns when all have completed.
type Runner interface {
	// Workers returns the pool's worker budget.
	Workers() int
	// Map runs fn over the task range and waits for completion.
	Map(tasks int, fn func(task int))
}

// liveEntry pairs a constraint with its list for the ordered sweep.
type liveEntry struct {
	c *Constraint
	l *liveList
}

// liveList is one constraint's materialized violation list.
type liveList struct {
	valid bool
	pairs []Violation
	// merge is the swap buffer for retract+merge passes.
	merge []Violation
	// colRelevant[col] reports whether the constraint mentions the column:
	// edits elsewhere cannot change this list.
	colRelevant []bool
}

// liveParallelRows is the table size above which a full derivation fans
// out across buckets; below it the goroutine handoff costs more than the
// scan.
const liveParallelRows = 2048

// maxLiveLists bounds the per-constraint map of a pooled set; beyond it
// the set forgets everything rather than track dead constraints forever.
const maxLiveLists = 128

// NewLiveViolationSet returns an empty live set with its own ScanIndex.
func NewLiveViolationSet() *LiveViolationSet {
	return &LiveViolationSet{
		ix:    NewScanIndex(),
		lists: make(map[*Constraint]*liveList),
	}
}

// Index exposes the underlying ScanIndex so callers can run point probes
// (ViolatesRowCached, ViolationPairsForRow) against the same buckets the
// live lists are derived from. The index shares the set's goroutine
// confinement.
func (s *LiveViolationSet) Index() *ScanIndex { return s.ix }

// Violations returns the current violation list of c over t, synced to
// t's generation. The returned slice aliases the set's storage: it is
// valid until the next call on the set after a table edit, and must not
// be mutated. Use Append for a caller-owned copy.
func (s *LiveViolationSet) Violations(c *Constraint, t *table.Table) ([]Violation, error) {
	l, err := s.listFor(c, t)
	if err != nil {
		return nil, err
	}
	return l.pairs, nil
}

// Append appends the current violation list of c over t to out and
// returns the extended slice — the drop-in replacement for
// Constraint.AppendViolations in repair hot loops, with delta maintenance
// underneath.
func (s *LiveViolationSet) Append(c *Constraint, t *table.Table, out []Violation) ([]Violation, error) {
	l, err := s.listFor(c, t)
	if err != nil {
		return out, err
	}
	return append(out, l.pairs...), nil
}

// ForEachViolatingGroup invokes fn over the join groups (hash buckets) of
// c that currently contain at least one violating pair, in ascending
// order of the group's first violating row. ok is false, with fn never
// invoked, when the constraint has no equality join key. The rows slice
// aliases index storage and is read-only; fn may mutate the table, and
// the set catches up on its next sync.
func (s *LiveViolationSet) ForEachViolatingGroup(c *Constraint, t *table.Table, fn func(rows []int) error) (bool, error) {
	bs, slots, err := s.violatingSlots(c, t)
	if err != nil {
		return false, err
	}
	if bs == nil {
		return false, nil
	}
	for _, slot := range slots {
		if err := fn(bs.members[slot]); err != nil {
			return true, err
		}
	}
	return true, nil
}

// violatingSlots is the shared core of ForEachViolatingGroup and
// AppendViolatingGroups: the bucket partition of c over t plus the slots
// currently containing at least one violating pair, in ascending order of
// each slot's first violating row. Keeping it in one place keeps the
// serial iterator and the parallel partition exposure on the same ordering
// invariant — the bit-identity contract of the parallel chase. A nil
// bucketSet (no equality join key) comes back with no error; the slot
// slice aliases s.slotOrder and is valid until the next call on the set.
func (s *LiveViolationSet) violatingSlots(c *Constraint, t *table.Table) (*bucketSet, []int, error) {
	l, err := s.listFor(c, t)
	if err != nil {
		return nil, nil, err
	}
	bs := s.ix.bucketSetFor(c, t)
	if bs == nil {
		return nil, nil, nil
	}
	if cap(s.slotSeen) >= bs.nSlots {
		s.slotSeen = s.slotSeen[:bs.nSlots]
	} else {
		s.slotSeen = make([]bool, bs.nSlots)
	}
	s.slotOrder = s.slotOrder[:0]
	for _, v := range l.pairs {
		slot := bs.rowBucket[v.Row1]
		if slot >= 0 && !s.slotSeen[slot] {
			s.slotSeen[slot] = true
			s.slotOrder = append(s.slotOrder, slot)
		}
	}
	// slotSeen is only needed while deduplicating; reset it here so every
	// caller inherits a clean mask.
	for _, slot := range s.slotOrder {
		s.slotSeen[slot] = false
	}
	return bs, s.slotOrder, nil
}

// AppendViolatingGroups appends to dst the join groups (hash buckets) of c
// that currently contain at least one violating pair, in ascending order
// of each group's first violating row — exactly the visit order of
// ForEachViolatingGroup. It is the bucket-partition
// exposure the parallel repair path consumes: groups are disjoint row
// sets, so a PlannedRepairer can compute per-group fixes concurrently
// and apply them serially in this order, bit-identical to the serial pass.
//
// ok is false — with dst returned unchanged — when the constraint has no
// equality join key; callers fall back to their serial pass there. The
// row slices alias index storage: read-only, valid until the table is
// mutated and the set re-synced.
func (s *LiveViolationSet) AppendViolatingGroups(c *Constraint, t *table.Table, dst [][]int) ([][]int, bool, error) {
	bs, slots, err := s.violatingSlots(c, t)
	if err != nil || bs == nil {
		return dst, false, err
	}
	for _, slot := range slots {
		dst = append(dst, bs.members[slot])
	}
	return dst, true, nil
}

// listFor syncs the set to t and returns c's list, deriving it in full
// when it is missing or invalidated.
func (s *LiveViolationSet) listFor(c *Constraint, t *table.Table) (*liveList, error) {
	s.sync(t)
	l, ok := s.lists[c]
	if !ok {
		if len(s.lists) >= maxLiveLists {
			clear(s.lists)
			s.ordered = s.ordered[:0]
		}
		l = &liveList{}
		s.lists[c] = l
		s.ordered = append(s.ordered, liveEntry{c: c, l: l})
	}
	if !l.valid {
		if err := s.derive(c, l, t); err != nil {
			return nil, err
		}
		l.valid = true
	}
	return l, nil
}

// sync points the set at t, replaying the edit log into every valid list
// when possible and invalidating wholesale otherwise.
func (s *LiveViolationSet) sync(t *table.Table) {
	if s.tbl == t && s.schema == t.Schema() {
		if s.gen == t.Generation() {
			return
		}
		s.editBuf = s.editBuf[:0]
		// An injected overrun simulates the ring wrapping between syncs:
		// the incremental path is declined and every list is re-derived,
		// exercising the same degradation the real overrun takes.
		if edits, ok := t.EditsSince(s.gen, s.editBuf); ok && !faults.Overrun(faults.SiteEditReplay) {
			s.editBuf = edits
			structural := table.Structural(edits)
			if structural {
				// Decode the structural window once against the row count
				// the lists were derived over; a decode that disagrees with
				// the live table means the window cannot be trusted.
				s.remap.Resolve(edits, s.rows)
			}
			if !structural || s.remap.NewRows == t.NumRows() {
				for _, ent := range s.ordered {
					c, l := ent.c, ent.l
					if !l.valid {
						continue
					}
					var err error
					if structural {
						err = s.applyListStructural(c, l, t)
					} else {
						err = s.applyList(c, l, t, edits)
					}
					if err != nil {
						// Deterministic per-constraint failure (compile
						// error): fall back to full derivation, which
						// surfaces the same error when the constraint is
						// actually queried.
						l.valid = false
					}
				}
				s.gen = t.Generation()
				s.rows = t.NumRows()
				return
			}
		}
	}
	s.tbl = t
	s.schema = t.Schema()
	s.gen = t.Generation()
	s.rows = t.NumRows()
	for _, ent := range s.ordered {
		ent.l.valid = false
	}
}

// applyList catches one list up with a window of single-cell edits:
// retract every pair involving a touched row, then re-derive those rows
// against their current buckets. Windows with structural edits take
// applyListStructural instead.
func (s *LiveViolationSet) applyList(c *Constraint, l *liveList, t *table.Table, edits []table.Edit) error {
	s.touchedRows = s.touchedRows[:0]
	for _, e := range edits {
		if e.Kind == table.EditSet && e.Col < len(l.colRelevant) && l.colRelevant[e.Col] {
			s.touchedRows = append(s.touchedRows, e.Row)
		}
	}
	if len(s.touchedRows) == 0 {
		return nil
	}
	sort.Ints(s.touchedRows)
	s.touchedRows = slices.Compact(s.touchedRows)

	n := t.NumRows()
	if cap(s.touchedMask) >= n {
		s.touchedMask = s.touchedMask[:n]
	} else {
		s.touchedMask = make([]bool, n)
	}
	mask := s.touchedMask
	for _, r := range s.touchedRows {
		mask[r] = true
	}
	defer func() {
		for _, r := range s.touchedRows {
			mask[r] = false
		}
	}()

	// Retract: drop every pair involving a touched row, in place.
	keep := l.pairs[:0]
	for _, v := range l.pairs {
		if !mask[v.Row1] && !mask[v.Row2] {
			keep = append(keep, v)
		}
	}
	l.pairs = keep

	// Re-derive the touched rows against the table's current state. Pairs
	// between two untouched rows are unchanged by construction (no cell in
	// a constraint-mentioned column moved), so this restores exactly the
	// full-rescan answer.
	if err := s.rederive(c, t, s.touchedRows, mask); err != nil {
		return err
	}

	// Merge the sorted additions into the sorted survivors.
	l.merge = mergeViolations(l.merge[:0], l.pairs, s.newPairs)
	l.pairs, l.merge = l.merge, l.pairs
	return nil
}

// applyListStructural catches one list up with a window containing row
// inserts/deletes, decoded by s.remap. The list's pairs are expressed in
// origin space; pairs involving a retracted origin (deleted rows, moved
// survivors, and surviving rows with relevant in-place edits) drop, and
// every surviving pair's indexes are already final — the swap-delete rule
// guarantees an unmoved survivor keeps its index, so no pair is ever
// remapped. Exactly the re-derived final positions (moved-in rows,
// in-window inserts, edited survivors) then re-scan their buckets, which
// restores the full-rescan answer: a pair between two clean rows cannot
// have changed (same indexes, same bytes in every constraint-mentioned
// column).
func (s *LiveViolationSet) applyListStructural(c *Constraint, l *liveList, t *table.Table) error {
	rm := &s.remap

	// Retraction mask over origin space.
	old := rm.OldRows
	if cap(s.touchedMask) >= old {
		s.touchedMask = s.touchedMask[:old]
	} else {
		s.touchedMask = make([]bool, old)
	}
	mask := s.touchedMask
	s.touchedRows = s.touchedRows[:0] // edited clean origins, also re-derived
	for _, o := range rm.Retract {
		mask[o] = true
	}
	for _, e := range rm.Sets {
		if rm.CleanSet(e) && e.Col < len(l.colRelevant) && l.colRelevant[e.Col] && !mask[e.Row] {
			mask[e.Row] = true
			s.touchedRows = append(s.touchedRows, e.Row)
		}
	}
	defer func() {
		for _, o := range rm.Retract {
			mask[o] = false
		}
		for _, r := range s.touchedRows {
			mask[r] = false
		}
	}()

	// Derivation mask over final-position space: moved-in and inserted
	// positions, plus edited clean rows (whose origin and final index
	// coincide). The two sources are disjoint — a clean row is by
	// definition not a Derive position.
	n := rm.NewRows
	if cap(s.deriveMask) >= n {
		s.deriveMask = s.deriveMask[:n]
	} else {
		s.deriveMask = make([]bool, n)
	}
	dmask := s.deriveMask
	s.deriveRows = s.deriveRows[:0]
	for _, p := range rm.Derive {
		dmask[p] = true
		s.deriveRows = append(s.deriveRows, int(p))
	}
	for _, r := range s.touchedRows {
		dmask[r] = true
		s.deriveRows = append(s.deriveRows, r)
	}
	sort.Ints(s.deriveRows)
	defer func() {
		for _, r := range s.deriveRows {
			dmask[r] = false
		}
	}()

	// Retract: drop every pair involving a retracted origin, in place.
	keep := l.pairs[:0]
	for _, v := range l.pairs {
		if !mask[v.Row1] && !mask[v.Row2] {
			keep = append(keep, v)
		}
	}
	l.pairs = keep

	// Re-derive the changed positions against the final table.
	if err := s.rederive(c, t, s.deriveRows, dmask); err != nil {
		return err
	}

	// Merge the sorted additions into the sorted survivors.
	l.merge = mergeViolations(l.merge[:0], l.pairs, s.newPairs)
	l.pairs, l.merge = l.merge, l.pairs
	return nil
}

// rederive sets s.newPairs to every violating pair of c over t that
// involves a row of rows (ascending), sorted by (Row1, Row2). in marks
// exactly the rows of rows, so a pair of two re-derived rows is found
// once: by the lower row, in both orders. Each row is checked against its
// current bucket (every row when c has no join key) with the compiled
// kernel, column-at-a-time: the scan partition — plan-shared when planned
// — only bounds the candidates, and the full kernel rejects any a coarser
// bucket adds.
func (s *LiveViolationSet) rederive(c *Constraint, t *table.Table, rows []int, in []bool) error {
	s.newPairs = s.newPairs[:0]
	if c.SingleTuple() {
		kern, err := s.ix.kernelFor(c, t)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if kern.Pair(t, r, r) {
				s.newPairs = append(s.newPairs, Violation{Constraint: c, Row1: r, Row2: r})
			}
		}
		return nil
	}
	e := s.ix.entryFor(c, t)
	if e.kernErr != nil {
		return e.kernErr
	}
	bs := s.ix.scanBucketSetFor(e, t)
	if bs == nil && len(s.allRows) != t.NumRows() {
		s.allRows = s.allRows[:0]
		for j := 0; j < t.NumRows(); j++ {
			s.allRows = append(s.allRows, j)
		}
	}
	for _, r := range rows {
		cand := s.allRows
		if bs != nil {
			slot := bs.rowBucket[r]
			if slot < 0 {
				// Null/NaN join key: r participates in no pair.
				continue
			}
			cand = bs.members[slot]
		}
		fwd, rev := s.aliveFwd[:0], s.aliveRev[:0]
		any := false
		for _, j := range cand {
			ok := j != r && !(in[j] && j < r)
			fwd = append(fwd, ok)
			any = any || ok
		}
		s.aliveFwd = fwd
		if !any {
			continue
		}
		rev = append(rev, fwd...)
		s.aliveRev = rev
		e.kern.Filter(t, 0, r, cand, fwd) // (r, j)
		e.kern.Filter(t, 1, r, cand, rev) // (j, r)
		for m, j := range cand {
			if fwd[m] {
				s.newPairs = append(s.newPairs, Violation{Constraint: c, Row1: r, Row2: j})
			}
			if rev[m] {
				s.newPairs = append(s.newPairs, Violation{Constraint: c, Row1: j, Row2: r})
			}
		}
	}
	slices.SortFunc(s.newPairs, violationOrder)
	return nil
}

// derive recomputes one list from scratch: the kernel-compiled bucket scan
// (fanned out across disjoint buckets for large tables), the naive kernel
// scan when the constraint has no join key, or the per-row scan for
// single-tuple constraints. Output is sorted by (Row1, Row2), bit-identical
// to AppendViolations.
func (s *LiveViolationSet) derive(c *Constraint, l *liveList, t *table.Table) error {
	// Refresh the column-relevance mask against the current schema.
	schema := t.Schema()
	if cap(l.colRelevant) >= schema.Len() {
		l.colRelevant = l.colRelevant[:schema.Len()]
		clear(l.colRelevant)
	} else {
		l.colRelevant = make([]bool, schema.Len())
	}
	for _, attr := range c.Attributes() {
		if idx, ok := schema.Index(attr); ok {
			l.colRelevant[idx] = true
		}
	}

	l.pairs = l.pairs[:0]
	e := s.ix.entryFor(c, t)
	if e.kernErr != nil {
		return e.kernErr
	}
	kern := e.kern
	// Pre-size the pair list from the plan's last observed cardinality,
	// and feed the fresh count back on the way out.
	if p := s.ix.plan; p != nil {
		if hint, ok := p.ViolationHint(c); ok && cap(l.pairs) < hint {
			l.pairs = make([]Violation, 0, hint)
		}
		defer func() { p.RecordViolations(c, len(l.pairs)) }()
	}
	n := t.NumRows()
	if c.SingleTuple() {
		for r := 0; r < n; r++ {
			if kern.Pair(t, r, r) {
				l.pairs = append(l.pairs, Violation{Constraint: c, Row1: r, Row2: r})
			}
		}
		return nil
	}
	bs := s.ix.scanBucketSetFor(e, t)
	if bs == nil {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && kern.Pair(t, i, j) {
					l.pairs = append(l.pairs, Violation{Constraint: c, Row1: i, Row2: j})
				}
			}
		}
		return nil
	}
	sc := bucketScan{kern: e.resid, c: c}
	if pf := s.ix.prefilterFor(c, t); pf != nil {
		sc.pass0, sc.pass1 = pf.pass0, pf.pass1
	}
	slots := bs.members[:bs.nSlots]
	workers := s.deriveWorkers(n, len(slots))
	if workers <= 1 {
		alive := s.ix.aliveFor(0)
		for _, rows := range slots {
			l.pairs = scanBucket(&sc, t, rows, &alive, l.pairs)
		}
		s.ix.alive = alive
	} else {
		l.pairs = deriveParallel(&sc, t, slots, workers, s.Pool, l.pairs)
	}
	slices.SortFunc(l.pairs, violationOrder)
	return nil
}

// deriveWorkers picks the fan-out for a full derivation: the explicit
// Workers override, else the plugged-in pool's budget, else a clamped
// GOMAXPROCS.
func (s *LiveViolationSet) deriveWorkers(rows, buckets int) int {
	if rows < liveParallelRows {
		return 1
	}
	w := s.Workers
	if w <= 0 && s.Pool != nil {
		w = s.Pool.Workers()
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w > buckets {
		w = buckets
	}
	if w < 1 {
		w = 1
	}
	return w
}

// bucketScan bundles what one bucket pair enumeration needs: the kernel
// to run per candidate (the residual kernel under a plan), the
// constraint for output tagging, and the optional pre-filter bitmaps.
// Read-only during a scan, so parallel workers share one value.
type bucketScan struct {
	kern         *Kernel
	c            *Constraint
	pass0, pass1 []bool
}

// scanBucket appends every ordered violating pair inside one bucket,
// resizing the caller's alive mask as needed.
func scanBucket(sc *bucketScan, t *table.Table, rows []int, alive *[]bool, out []Violation) []Violation {
	if len(rows) < 2 {
		return out
	}
	a := *alive
	if cap(a) < len(rows) {
		a = make([]bool, len(rows))
	}
	a = a[:len(rows)]
	*alive = a
	for n, i := range rows {
		if sc.pass0 != nil && !sc.pass0[i] {
			continue
		}
		any := false
		for m := range a {
			ok := m != n && (sc.pass1 == nil || sc.pass1[rows[m]])
			a[m] = ok
			any = any || ok
		}
		if !any {
			continue
		}
		sc.kern.Filter(t, 0, i, rows, a)
		for m, j := range rows {
			if a[m] {
				out = append(out, Violation{Constraint: sc.c, Row1: i, Row2: j})
			}
		}
	}
	return out
}

// deriveParallel fans the bucket scans of one full derivation across a
// worker pool — the session engine's bounded pool when one is plugged in,
// ad-hoc goroutines otherwise. Buckets are disjoint row sets, so workers
// share nothing but the read-only table, partition and kernel; outputs are
// concatenated and sorted by the caller, which makes the result
// independent of scheduling.
func deriveParallel(sc *bucketScan, t *table.Table, slots [][]int, workers int, pool Runner, out []Violation) []Violation {
	var next atomic.Int64
	results := make([][]Violation, workers)
	worker := func(w int) {
		var local []Violation
		var alive []bool
		for {
			i := int(next.Add(1)) - 1
			if i >= len(slots) {
				break
			}
			local = scanBucket(sc, t, slots[i], &alive, local)
		}
		results[w] = local
	}
	if pool != nil {
		pool.Map(workers, worker)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// violationOrder is the canonical (Row1, Row2) order of every violation
// list.
func violationOrder(a, b Violation) int {
	if a.Row1 != b.Row1 {
		return a.Row1 - b.Row1
	}
	return a.Row2 - b.Row2
}

// mergeViolations merges two (Row1, Row2)-sorted lists into dst.
func mergeViolations(dst, a, b []Violation) []Violation {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if violationOrder(a[i], b[j]) <= 0 {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
