package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rank(p, tc.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, p*100, tc.n-rank(p, tc.n))
		}
	}
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted input
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 0, 100, 20},
		{"parallel overlap", []interval{{10, 60}, {30, 80}}, 0, 100, 70},
		{"nested", []interval{{10, 90}, {20, 30}}, 0, 100, 80},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"clipped to the parent", []interval{{-10, 20}, {90, 120}}, 0, 100, 30},
		{"outside", []interval{{200, 300}}, 0, 100, 0},
	} {
		if got := covered(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Self time is an entry point's span minus the union of the repair spans
// under it: two workers repairing at once must not count twice.
func TestSelfTimeSubtractsTheUnionOfParallelRepairs(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{kind: kExplainCells, op: 0, parent: -1, start: 0, end: 100},
		{kind: kRepair, op: 0, parent: 0, start: 10, end: 60}, // worker 1
		{kind: kRepair, op: 0, parent: 0, start: 30, end: 80}, // worker 2
		{kind: kRepair, op: 0, parent: 0, start: 85, end: 90}, // worker 1 again
		{kind: kTarget, op: 1, parent: -1, start: 200, end: 210},
		{kind: kRepair, op: -1, parent: -1, start: 300, end: 400}, // set-up, not an op
	}
	st := r.stats()
	if st.coreSelf != 100-75+10 {
		t.Errorf("core self time = %d, want %d", st.coreSelf, 100-75+10)
	}
	if st.repairSum != 50+50+5 {
		t.Errorf("summed repair time = %d, want 105", st.repairSum)
	}
	if n := len(st.dur[kRepair]); n != 3 {
		t.Errorf("%d repair spans counted, want 3", n)
	}
}

// The recorder attaches black-box spans to the entry point open at the
// time, from any goroutine.
func TestRecorderParentsRepairSpans(t *testing.T) {
	r := newRecorder()
	r.setOp(4)
	outer := r.begin(kExplainCells)
	done := make(chan struct{})
	go func() {
		r.end(r.begin(kRepair))
		close(done)
	}()
	<-done
	r.end(outer)
	after := r.begin(kViolations)
	r.end(after)
	if got := r.spans[1]; got.parent != int32(outer) || got.op != 4 || got.kind != kRepair {
		t.Errorf("repair span = %+v, want parent %d op 4", got, outer)
	}
	if got := r.spans[after]; got.parent != -1 {
		t.Errorf("span after the explain has parent %d, want -1", got.parent)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(kRepair)) // a nil recorder records nothing
}

// fakeClock advances only when told: sleeping jumps to the wake time and
// a request takes whatever time its handler adds.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// In the open loop a request is timed from when it was due, so a stall
// counts against the requests queued behind it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	ms := time.Millisecond
	q := []*request{{due: 0}, {due: 10 * ms}, {due: 20 * ms}, {due: 50 * ms}}
	service := []time.Duration{25 * ms, ms, ms, ms}
	i := 0
	openLoop(clk, start, q, func(r *request) {
		r.sent = clk.now.Sub(start)
		clk.now = clk.now.Add(service[i])
		r.done = clk.now.Sub(start)
		i++
	})
	for k, want := range []struct{ latency, late time.Duration }{
		{25 * ms, 0}, {16 * ms, 15 * ms}, {7 * ms, 6 * ms}, {ms, 0},
	} {
		if q[k].latency() != want.latency || q[k].late() != want.late {
			t.Errorf("request %d: latency %v late %v, want %v and %v", k, q[k].latency(), q[k].late(), want.latency, want.late)
		}
	}
}

func TestScheduleIsSeededAndKeepsRowsBalanced(t *testing.T) {
	a, b := schedule(7, 5*time.Second), schedule(7, 5*time.Second)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedules of one seed have %d and %d requests", len(a), len(b))
	}
	extra := make([]int, mixSessions)
	for i := range a {
		if !sameRequest(a[i], b[i]) {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		switch a[i].kind {
		case rqInsert:
			extra[a[i].sess]++
		case rqDelete:
			if a[i].row != 6+extra[a[i].sess] {
				t.Errorf("request %d deletes row %d, the inserted row is %d", i, a[i].row, 6+extra[a[i].sess])
			}
			extra[a[i].sess]--
		}
		if extra[a[i].sess] < 0 || extra[a[i].sess] > 1 {
			t.Fatalf("session %d has %d extra rows", a[i].sess, extra[a[i].sess])
		}
	}
	if c := schedule(8, 5*time.Second); len(c) == len(a) && sameRequest(c[0], a[0]) {
		t.Error("two seeds gave the same schedule")
	}
}

func sameRequest(x, y *request) bool {
	return x.due == y.due && x.kind == y.kind && x.sess == y.sess && x.seed == y.seed && x.value == y.value && x.row == y.row
}

func TestConnectionsCarrySimilarLoad(t *testing.T) {
	w := sessionWeights()
	conn := connectionOf(w, 2)
	var load [2]float64
	for j, c := range conn {
		load[c] += w[j]
	}
	if r := load[0] / load[1]; r < 0.9 || r > 1.1 {
		t.Errorf("connection loads %v are unbalanced", load)
	}
}

func TestLRUModelFlagsSpooledSessions(t *testing.T) {
	l := &lruModel{last: map[string]int{}}
	for _, id := range []string{"a", "b", "c"} {
		if l.touch(id) {
			t.Errorf("first touch of %s reported spooled", id)
		}
	}
	if l.touch("a") {
		t.Error("a was live: only two sessions were touched after it")
	}
	l.touch("d")
	l.touch("e")
	if !l.touch("b") {
		t.Error("b should be spooled: c, a, d and e were touched after it")
	}
}
