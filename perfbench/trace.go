package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/table"
)

// kind names what a span timed: one public entry point of one module.
type kind uint8

const (
	kTarget kind = iota
	kExplainCells
	kExplainCellsAgain // a repeat visit of the same cell screen
	kExplainConstraints
	kExplainGroups
	kExplainTopK
	kEdit       // Session.SetCell, InsertRow, DeleteRow
	kDCEdit     // Session.AddDC, RemoveDC
	kViolations // Session.Violations
	kRepair     // one black-box run, through tracedRepair
	numKinds
)

var kindNames = [numKinds]string{
	"core.Target", "core.ExplainCells", "core.ExplainCells.again", "core.ExplainConstraints",
	"core.ExplainCellGroupsSampled", "core.ExplainCellsTopK",
	"table.edit", "dc.plan.dc_edit", "dc.Violations", "repair.run",
}

// coreKinds are the Explainer entry points whose self time is core's.
var coreKinds = []kind{kTarget, kExplainCells, kExplainCellsAgain, kExplainConstraints, kExplainGroups, kExplainTopK}

// span is one timed call. Times are nanoseconds since the recorder's
// start; parent is the index of the enclosing span or -1.
type span struct {
	kind       kind
	op, parent int32
	start, end int64
}

// recorder keeps the spans of one traced phase in memory. The benchmark's
// single caller opens top-level spans; black-box runs on the engine's
// worker goroutines attach to the top-level span open at the time. A nil
// recorder records nothing, which is how untraced phases run.
type recorder struct {
	t0    time.Time
	op    atomic.Int32
	open  atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	r.op.Store(-1)
	r.open.Store(-1)
	return r
}

// setOp marks the start of op i; spans opened from now on belong to it.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op.Store(int32(i))
	}
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(k kind) int {
	if r == nil {
		return -1
	}
	parent := r.open.Load()
	r.mu.Lock()
	i := len(r.spans)
	r.spans = append(r.spans, span{kind: k, op: r.op.Load(), parent: parent, start: int64(time.Since(r.t0))})
	r.mu.Unlock()
	if k != kRepair {
		r.open.Store(int32(i))
	}
	return i
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	s := &r.spans[i]
	s.end = now
	if s.kind != kRepair {
		r.open.Store(s.parent)
	}
	r.mu.Unlock()
}

// call runs f inside a span of kind k.
func call[T any](r *recorder, k kind, f func() (T, error)) (T, error) {
	i := r.begin(k)
	v, err := f()
	r.end(i)
	return v, err
}

// do runs f inside a span of kind k.
func do(r *recorder, k kind, f func() error) error {
	_, err := call(r, k, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// write saves the spans as gzip-compressed CSV.
func (r *recorder) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "span,name,op,parent,start_ns,end_ns")
	r.mu.Lock()
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", i, kindNames[s.kind], s.op, s.parent, s.start, s.end)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// layerStats summarizes the spans of the timed ops for the per-layer
// metrics: per-kind durations, core self time (an entry point's span minus
// the union of the repair spans it covers) and summed repair time.
type layerStats struct {
	dur       [numKinds][]time.Duration
	coreSelf  time.Duration
	repairSum time.Duration
}

func (r *recorder) stats() layerStats {
	var st layerStats
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]interval)
	for _, s := range r.spans {
		if s.op < 0 {
			continue
		}
		d := time.Duration(s.end - s.start)
		st.dur[s.kind] = append(st.dur[s.kind], d)
		if s.kind == kRepair {
			st.repairSum += d
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
	}
	for i, s := range r.spans {
		if s.op < 0 || s.parent >= 0 || !slices.Contains(coreKinds, s.kind) {
			continue
		}
		st.coreSelf += time.Duration(s.end - s.start - covered(children[int32(i)], s.start, s.end))
	}
	return st
}

// tracedRepair forwards the whole black-box contract of a planned
// repairer and records one span per run. Only traced phases use it, so
// untraced runs call the black box exactly as the library does.
type tracedRepair struct {
	alg repair.PlannedRepairer
	rec *recorder
}

func traced(alg repair.Algorithm, rec *recorder) (repair.Algorithm, error) {
	if rec == nil {
		return alg, nil
	}
	pl, ok := alg.(repair.PlannedRepairer)
	if !ok {
		return nil, fmt.Errorf("black box %s does not implement the planned contract", alg.Name())
	}
	return tracedRepair{pl, rec}, nil
}

func (t tracedRepair) Name() string { return t.alg.Name() }

func (t tracedRepair) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	defer t.rec.end(t.rec.begin(kRepair))
	return t.alg.Repair(ctx, cs, dirty)
}

func (t tracedRepair) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	defer t.rec.end(t.rec.begin(kRepair))
	return t.alg.RepairInto(ctx, cs, dirty, work)
}

func (t tracedRepair) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	defer t.rec.end(t.rec.begin(kRepair))
	return t.alg.RepairIntoParallel(ctx, cs, dirty, work, pool)
}

func (t tracedRepair) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	defer t.rec.end(t.rec.begin(kRepair))
	return t.alg.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
}
