package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/table"
)

// Session models the iterative debugging loop of §3/§4: users inspect an
// explanation, edit the constraints or the dirty table, re-repair and
// re-explain. A Session owns a mutable copy of the inputs, the edit
// history, and the session execution engine (internal/exec): one shared
// generation-keyed coalition cache plus one bounded worker pool spanning
// every explainer and game derived from the session.
type Session struct {
	alg   repair.Algorithm
	dcs   []*dc.Constraint
	dirty *table.Table
	// History records one line per edit, oldest first.
	History []string
	// live materializes the session's violation lists and maintains them
	// incrementally across SetCell edits (allocated on first use).
	live *dc.LiveViolationSet
	// engine is the session execution layer; every Explainer() carries it.
	engine *exec.Engine
	// repairDesc caches the repair-target descriptor of the current
	// (algorithm, constraint set); recomputed on constraint edits and
	// handed to every Explainer so the edit loop's Target() calls don't
	// re-render the constraint strings per call.
	repairDesc string
	// plan is the compiled constraint-set query plan of the current
	// (schema, DC set) — shared partitions, selectivity-ordered kernels,
	// pre-filter pushdown, cardinality hints — compiled at construction
	// and on every constraint edit. Every violation scan and repair of the
	// session runs behind it.
	plan *plan.Plan
}

// SessionOptions configures a session's execution engine.
type SessionOptions struct {
	// Workers is the engine's parallelism budget — the worker pool repair
	// black boxes fan disjoint-bucket passes across, and the default
	// sampling fan-out of the session's explainers. 0 means GOMAXPROCS.
	// Parallelism never changes results (see the PlannedRepairer and
	// fan-out determinism contracts); 1 forces fully serial execution.
	Workers int
}

// NewSession starts an iterative session with default engine options; the
// table is cloned so caller data is never mutated.
func NewSession(alg repair.Algorithm, dcs []*dc.Constraint, dirty *table.Table) (*Session, error) {
	return NewSessionWith(alg, dcs, dirty, SessionOptions{})
}

// NewSessionWith is NewSession with explicit engine options.
func NewSessionWith(alg repair.Algorithm, dcs []*dc.Constraint, dirty *table.Table, opts SessionOptions) (*Session, error) {
	if err := validateInputs(alg, dcs, dirty); err != nil {
		return nil, err
	}
	s := &Session{
		alg:    alg,
		dcs:    append([]*dc.Constraint(nil), dcs...),
		dirty:  dirty.Clone(),
		engine: exec.NewEngine(opts.Workers),
	}
	s.refreshRepairDesc()
	s.refreshPlan()
	return s, nil
}

// refreshRepairDesc re-renders the cached repair-target descriptor; call
// after any constraint-set change.
func (s *Session) refreshRepairDesc() {
	s.repairDesc = (&Explainer{Alg: s.alg, DCs: s.dcs}).gameDesc("repair")
}

// refreshPlan compiles the constraint-set query plan for the session's
// current schema and DC set; call after any constraint-set change.
func (s *Session) refreshPlan() {
	s.plan = plan.Compile(s.dirty.Schema(), s.dcs)
}

// Engine exposes the session's execution engine (cache statistics for the
// UI, the pool for advanced callers).
func (s *Session) Engine() *exec.Engine { return s.engine }

// Explainer returns an Explainer over the session's current state, wired
// to the session engine: its games share the session's coalition cache —
// keyed by game identity and invalidated by the dirty table's generation,
// which every SetCell bumps — and its repairs run on the session pool
// behind the session plan.
func (s *Session) Explainer() *Explainer {
	return &Explainer{Alg: s.alg, DCs: s.dcs, Dirty: s.dirty, engine: s.engine, plan: s.plan, repairDescMemo: s.repairDesc}
}

// Dirty returns the session's current dirty table (live; edits via SetCell).
func (s *Session) Dirty() *table.Table { return s.dirty }

// DCs returns the session's current constraints.
func (s *Session) DCs() []*dc.Constraint { return append([]*dc.Constraint(nil), s.dcs...) }

// SetCell edits one cell of the dirty table, as the GUI's table editor
// does between iterations.
func (s *Session) SetCell(ref table.CellRef, v table.Value) error {
	if ref.Row < 0 || ref.Row >= s.dirty.NumRows() || ref.Col < 0 || ref.Col >= s.dirty.NumCols() {
		return fmt.Errorf("core: cell %v out of range", ref)
	}
	old := s.dirty.GetRef(ref)
	s.dirty.SetRef(ref, v)
	s.History = append(s.History, fmt.Sprintf("set %s: %s -> %s", s.dirty.RefName(ref), old, v))
	return nil
}

// InsertRow appends one row to the dirty table — the GUI's "add tuple"
// action. The insert is a typed edit-log entry, so the session's live
// violation lists and the engine's generation-keyed caches pick it up as
// a one-row delta, not a rebuild.
func (s *Session) InsertRow(vals []table.Value) error {
	if err := s.dirty.Append(vals); err != nil {
		return err
	}
	s.History = append(s.History, fmt.Sprintf("insert row %d", s.dirty.NumRows()-1))
	return nil
}

// DeleteRow removes one row by the table's swap-delete rule: the last
// row moves into the vacated index and every other row keeps its index.
// The history line names the remap so a user replaying the log can track
// where the moved survivor went; cached artifacts holding CellRefs are
// generation-keyed and can never read the renumbered row under its old
// index.
func (s *Session) DeleteRow(row int) error {
	n := s.dirty.NumRows()
	if row < 0 || row >= n {
		return fmt.Errorf("core: delete row %d out of range 0..%d", row, n-1)
	}
	s.dirty.DeleteRow(row)
	s.History = append(s.History, deleteHistory(row, n))
	return nil
}

// deleteHistory renders the history line for deleting row of a table
// that had n rows, naming the swap-delete remap when one happened.
func deleteHistory(row, n int) string {
	if row == n-1 {
		return fmt.Sprintf("delete row %d", row)
	}
	return fmt.Sprintf("delete row %d (row %d moved to %d)", row, n-1, row)
}

// BatchOpKind selects which operation a BatchOp performs.
type BatchOpKind string

// The batch operation kinds. The strings double as the wire names the
// server's batch endpoint accepts.
const (
	BatchSet    BatchOpKind = "set"
	BatchInsert BatchOpKind = "insert"
	BatchDelete BatchOpKind = "delete"
)

// BatchOp is one declarative operation of a Session.ApplyBatch bracket.
// Exactly the fields of its Kind are read: Ref/Value for BatchSet, Vals
// for BatchInsert, Row for BatchDelete. Row and Ref indexes address the
// table as it stands when the op runs — earlier ops in the same batch
// shift them (inserts land at the then-current tail; deletes swap the
// then-last row down).
type BatchOp struct {
	Kind  BatchOpKind
	Ref   table.CellRef
	Value table.Value
	Row   int
	Vals  []table.Value
}

// ApplyBatch applies ops to the dirty table under one batch bracket: one
// generation for the whole run, so incremental consumers replay it as a
// single delta and generation-keyed caches invalidate exactly once. The
// ops are validated up front against the simulated row count (the
// table's batch bracket groups generations, not atomicity — a mid-batch
// failure would stay applied), so a validated batch cannot fail partway.
// History records the bracket as "batch begin (N ops)" … "batch end"
// with one line per op between; RestoreSession checks the brackets
// balance.
func (s *Session) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	rows := s.dirty.NumRows()
	for i, op := range ops {
		switch op.Kind {
		case BatchSet:
			if op.Ref.Row < 0 || op.Ref.Row >= rows || op.Ref.Col < 0 || op.Ref.Col >= s.dirty.NumCols() {
				return fmt.Errorf("core: batch op %d: cell %v out of range", i, op.Ref)
			}
		case BatchInsert:
			if err := s.dirty.Schema().Validate(op.Vals); err != nil {
				return fmt.Errorf("core: batch op %d: %w", i, err)
			}
			rows++
		case BatchDelete:
			if op.Row < 0 || op.Row >= rows {
				return fmt.Errorf("core: batch op %d: delete row %d out of range 0..%d", i, op.Row, rows-1)
			}
			rows--
		default:
			return fmt.Errorf("core: batch op %d: unknown kind %q", i, op.Kind)
		}
	}
	s.History = append(s.History, fmt.Sprintf("batch begin (%d ops)", len(ops)))
	err := s.dirty.ApplyBatch(func(b *table.Table) error {
		for _, op := range ops {
			switch op.Kind {
			case BatchSet:
				old := b.GetRef(op.Ref)
				b.SetRef(op.Ref, op.Value)
				s.History = append(s.History, fmt.Sprintf("set %s: %s -> %s", b.RefName(op.Ref), old, op.Value))
			case BatchInsert:
				if err := b.Append(op.Vals); err != nil {
					return err
				}
				s.History = append(s.History, fmt.Sprintf("insert row %d", b.NumRows()-1))
			case BatchDelete:
				n := b.NumRows()
				b.DeleteRow(op.Row)
				s.History = append(s.History, deleteHistory(op.Row, n))
			}
		}
		return nil
	})
	// Close the bracket even on the (validated-away) error path so the
	// history never spools with an open batch.
	s.History = append(s.History, "batch end")
	return err
}

// IngestCSV streams CSV rows (matching the session schema) into the
// dirty table as one batch bracket; see Table.IngestCSV. Returns the
// number of rows appended.
func (s *Session) IngestCSV(r io.Reader) (int, error) {
	n, err := s.dirty.IngestCSV(r)
	if n > 0 {
		s.History = append(s.History, fmt.Sprintf("ingest %d rows (csv)", n))
	}
	return n, err
}

// RemoveDC removes a constraint by ID — the demo scenario's "remove the
// highest-ranked DC" action.
func (s *Session) RemoveDC(id string) error {
	if dc.ByID(s.dcs, id) == nil {
		return fmt.Errorf("core: no constraint %q", id)
	}
	s.dcs = dc.Without(s.dcs, id)
	s.History = append(s.History, "removed "+id)
	// Constraint edits re-key every game descriptor without bumping the
	// table generation; drop the now-unreachable coalition values.
	s.engine.InvalidateCache()
	s.refreshRepairDesc()
	s.refreshPlan()
	return nil
}

// AddDC parses and adds a constraint.
func (s *Session) AddDC(text string) error {
	c, err := dc.Parse(text)
	if err != nil {
		return err
	}
	if c.ID == "" {
		c.ID = fmt.Sprintf("C%d", len(s.dcs)+1)
	}
	if dc.ByID(s.dcs, c.ID) != nil {
		return fmt.Errorf("core: constraint %q already exists", c.ID)
	}
	if err := c.Validate(s.dirty.Schema()); err != nil {
		return err
	}
	s.dcs = append(s.dcs, c)
	s.History = append(s.History, "added "+c.String())
	// See RemoveDC: constraint edits re-key every game descriptor.
	s.engine.InvalidateCache()
	s.refreshRepairDesc()
	s.refreshPlan()
	return nil
}

// Violations returns the current violations of every session constraint
// over the live dirty table, in constraint order and (Row1, Row2) order
// within a constraint — the inspection view of the iterative loop ("what
// is still broken?"). The lists are materialized once and then maintained
// incrementally: each SetCell retracts and re-derives only the edited
// row's pairs, so polling this between edits costs per-edit, not
// per-table, work. The returned slice is owned by the caller.
func (s *Session) Violations() ([]dc.Violation, error) {
	if s.live == nil {
		s.live = dc.NewLiveViolationSet()
	}
	s.live.UsePlan(s.plan)
	var out []dc.Violation
	for _, c := range s.dcs {
		var err error
		out, err = s.live.Append(c, s.dirty, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Consistent reports whether the session's dirty table currently satisfies
// every constraint, off the same incrementally-maintained lists.
func (s *Session) Consistent() (bool, error) {
	vs, err := s.Violations()
	if err != nil {
		return false, err
	}
	return len(vs) == 0, nil
}

// Repair runs the black box on the session's current state.
func (s *Session) Repair(ctx context.Context) (*table.Table, []table.CellDiff, error) {
	return s.Explainer().Repair(ctx)
}
