package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// Pool is a bounded worker pool for disjoint-task fan-out. The bound is
// global: every Map call borrows helper slots from one shared budget and
// the caller always participates, so arbitrarily nested Map calls (a
// Shapley sampler worker whose repair pass parallelizes its bucket scans)
// run at most Workers goroutines beyond their callers and degrade
// gracefully to caller-only execution when the budget is spent.
//
// A nil *Pool is the serial pool: Workers reports 1 and Map runs every
// task on the caller. Callers therefore never need to special-case "no
// engine".
type Pool struct {
	workers int
	// slots is the helper budget (workers-1 tokens: the caller is the
	// always-available worker).
	slots chan struct{}
}

// NewPool builds a pool with the given worker budget; 0 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	workers = defaultWorkers(workers)
	p := &Pool{workers: workers}
	if workers > 1 {
		p.slots = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			p.slots <- struct{}{}
		}
	}
	return p
}

// Workers returns the pool's worker budget (1 for the nil/serial pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// IdleHelpers returns how many helper slots are currently available —
// Workers()-1 when no Map is in flight. It exists for admission control
// and for the worker-release regression tests: an aborted request must
// return every borrowed slot (a leak here would slowly strangle the
// session's parallelism).
func (p *Pool) IdleHelpers() int {
	if p == nil || p.slots == nil {
		return 0
	}
	return len(p.slots)
}

// PanicError wraps a panic recovered from a pool helper goroutine so it
// can be re-raised on the caller's goroutine. Without this, a panic in any
// black box running on a helper would crash the whole process from a
// goroutine no request handler can recover — the fleet-killing failure
// mode the fault model forbids.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("exec: worker panic: %v", p.Value) }

// Unwrap exposes an error panic value to errors.Is/As chains.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Map runs fn(task) for every task in [0, tasks) and returns when all have
// completed. Tasks are claimed from an atomic counter by up to Workers
// goroutines including the caller; helper acquisition never blocks, so a
// saturated pool costs nothing beyond serial execution. fn must be safe
// for concurrent invocation on distinct tasks.
//
// A panic in fn — on the caller or on a helper — is re-raised on the
// caller's goroutine as a *PanicError after every helper has finished and
// returned its slot, so the process survives, no slot leaks, and
// per-request recovery (internal/server) can quarantine the offending
// session. If several tasks panic, the first recovered one wins.
//
// Map imposes no ordering: callers needing deterministic output either
// write to task-indexed slots (compute phase) or apply results serially
// afterwards — the pattern repair.PlannedRepairer golden-tests.
func (p *Pool) Map(tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || tasks == 1 {
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[PanicError]
	run := func() {
		// One recover scope per worker: the panicking task poisons the
		// worker (its remaining claims go unrun by it), but peers keep
		// draining, so every slot comes home before the re-raise.
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &PanicError{Value: r})
			}
		}()
		faults.Hit(faults.SiteWorkerStart)
		for {
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			if panicked.Load() != nil {
				return
			}
			fn(i)
		}
	}
	want := p.workers - 1
	if want > tasks-1 {
		want = tasks - 1
	}
	var wg sync.WaitGroup
acquire:
	for i := 0; i < want; i++ {
		select {
		case <-p.slots:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.slots <- struct{}{} }()
				run()
			}()
		default:
			break acquire
		}
	}
	run()
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		panic(pe)
	}
}
