package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

// inproc is a workload run inside this process: one caller in a closed
// loop over one core.Session. Op i is edit(i) followed by refresh(i).
type inproc struct {
	seed    int64
	workers int
	cell    table.CellRef
	// restrict is whether the op's ExplainCells calls scope their players
	// to RelevantCells; the efficiency check builds the same game.
	restrict bool
	// open builds the fixture and a session over it with the given engine
	// workers. With rec set, the black box is wrapped in spans.
	open func(workers int, rec *recorder) (*core.Session, error)
	// edit applies op i's edit; nil for a workload that does not edit.
	edit func(s *core.Session, i int, rec *recorder) error
	// refresh runs op i's explain calls with the given sampling fan-out.
	refresh func(ctx context.Context, s *core.Session, i, workers int, rec *recorder) (*outputs, error)
}

// outputs are what one op returned; the replay compares them bit for bit.
type outputs struct {
	reports []*core.Report
	// cells indexes the ExplainCells reports among reports.
	cells      []int
	violations []string
}

// opRecord is one timed op.
type opRecord struct {
	latency time.Duration
	// sums are the entry sums of the op's ExplainCells reports.
	sums []float64
	// out is kept for the ops the replay re-runs.
	out *outputs
	err error
}

// phase is one timed closed loop.
type phase struct {
	recs            []opRecord
	wall, cpu       time.Duration
	peakRSSMB       float64
	hits, misses    uint64
	rtHits, rtMiss  uint64
	allocBytes      float64
	gcCPU, totalCPU float64
}

// mix derives an independent 63-bit seed for item i of a run (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// replayed reports whether the replay re-runs op i: about one op in
// replayEvery, chosen from the seed, and always the first.
func replayed(seed int64, i int) bool {
	return i == 0 || mix(seed^0x5eed, i)%replayEvery == 0
}

const replayEvery = 16

// ready opens a session and runs its first repair; the cell of interest
// must come out repaired.
func (w *inproc) ready(ctx context.Context, workers int, rec *recorder) (*core.Session, error) {
	s, err := w.open(workers, rec)
	if err != nil {
		return nil, err
	}
	_, repaired, err := s.Explainer().Target(ctx, w.cell)
	if err != nil {
		return nil, err
	}
	if !repaired {
		return nil, fmt.Errorf("cell %s is not repaired", s.Dirty().RefName(w.cell))
	}
	return s, nil
}

// measure runs ops from 0 for window, and past it until minOps ops ran
// (at most two windows). The peak RSS is read after minOps ops, or at
// the end of a shorter loop: the session's coalition cache grows with
// every op, so a peak read at the end would grow with the speed of the
// build under test.
func (w *inproc) measure(ctx context.Context, s *core.Session, rec *recorder, window time.Duration, minOps int) phase {
	var p phase
	p.hits, p.misses = s.Engine().CacheStats()
	p.rtHits, p.rtMiss = s.Engine().RepairTargets().Stats()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= window && i >= minOps) || el >= 2*window {
			break
		}
		rec.setOp(i)
		t := time.Now()
		var out *outputs
		var err error
		if w.edit != nil {
			err = w.edit(s, i, rec)
		}
		if err == nil {
			out, err = w.refresh(ctx, s, i, w.workers, rec)
		}
		r := opRecord{latency: time.Since(t), err: err}
		if out != nil {
			for _, c := range out.cells {
				r.sums = append(r.sums, entrySum(out.reports[c]))
			}
			if replayed(w.seed, i) {
				r.out = out
			}
		}
		p.recs = append(p.recs, r)
		if len(p.recs) == minOps {
			p.peakRSSMB = peakRSSMB("self")
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	rt := readRuntime()
	p.allocBytes = rt[0] - rt0[0]
	p.gcCPU, p.totalCPU = rt[1]-rt0[1], rt[2]-rt0[2]
	if len(p.recs) < minOps || minOps == 0 {
		p.peakRSSMB = peakRSSMB("self")
	}
	h, m := s.Engine().CacheStats()
	p.hits, p.misses = h-p.hits, m-p.misses
	h, m = s.Engine().RepairTargets().Stats()
	p.rtHits, p.rtMiss = h-p.rtHits, m-p.rtMiss
	return p
}

func entrySum(r *core.Report) float64 {
	var sum float64
	for _, e := range r.Entries {
		sum += e.Shapley
	}
	return sum
}

// verify replays the ops of p on a fresh Workers=1 session with the same
// edit history. Every op's ExplainCells reports must sum to v(N) − v(∅);
// the replayed ops must return bit-identical outputs. It returns the
// replay's op times, which run at Workers=1.
func (w *inproc) verify(ctx context.Context, p phase, res *result) (map[int]time.Duration, error) {
	s, err := w.ready(ctx, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("opening the replay session: %w", err)
	}
	times := make(map[int]time.Duration)
	res.attempted += len(p.recs)
	for i, r := range p.recs {
		t := time.Now()
		if w.edit != nil {
			if err := w.edit(s, i, nil); err != nil {
				return nil, fmt.Errorf("replaying edit %d: %w", i, err)
			}
		}
		if r.err != nil {
			res.fail("op %d: %v", i, r.err)
			continue
		}
		if r.out != nil {
			got, err := w.refresh(ctx, s, i, 1, nil)
			times[i] = time.Since(t)
			if err != nil || !sameOutputs(got, r.out) {
				res.fail("op %d: Workers=1 replay differs (err %v)", i, err)
				continue
			}
		}
		gap, err := efficiencyGap(ctx, s, w.cell, w.restrict)
		if err != nil {
			return nil, err
		}
		for _, sum := range r.sums {
			if math.Abs(sum-gap) > 1e-9 {
				res.fail("op %d: cell values sum to %v, v(N)-v(empty) is %v", i, sum, gap)
				break
			}
		}
	}
	return times, nil
}

// efficiencyGap is v(N) − v(∅) of the cell game ExplainCells samples in
// the session's current state.
func efficiencyGap(ctx context.Context, s *core.Session, cell table.CellRef, restrict bool) (float64, error) {
	exp := s.Explainer()
	target, _, err := exp.Target(ctx, cell)
	if err != nil {
		return 0, err
	}
	g := exp.NewCellGame(cell, target, core.ReplaceWithNull)
	if restrict {
		g.RestrictPlayers(exp.RelevantCells(cell))
	}
	coalition := make([]bool, g.NumPlayers())
	none, err := g.Value(ctx, coalition)
	if err != nil {
		return 0, err
	}
	for i := range coalition {
		coalition[i] = true
	}
	all, err := g.Value(ctx, coalition)
	return all - none, err
}

func sameOutputs(a, b *outputs) bool {
	return slices.EqualFunc(a.reports, b.reports, sameReport) && slices.Equal(a.violations, b.violations)
}

// sameReport compares two reports bit for bit, floats included.
func sameReport(a, b *core.Report) bool {
	if a.Kind != b.Kind || a.Cell != b.Cell || a.Target != b.Target || a.Algorithm != b.Algorithm {
		return false
	}
	return slices.EqualFunc(a.Entries, b.Entries, func(x, y core.Entry) bool {
		return x.Name == y.Name && x.Samples == y.Samples &&
			math.Float64bits(x.Shapley) == math.Float64bits(y.Shapley) &&
			math.Float64bits(x.CI95) == math.Float64bits(y.CI95)
	})
}

// runInproc runs an in-process workload: set-up repeated cfg.setups
// times, the timed closed loop, and the replay check. A traced run splits
// the window between an untraced and a traced loop over the same ops.
func runInproc(ctx context.Context, cfg config, w *inproc) (*result, error) {
	res := &result{metrics: map[string]float64{}, info: map[string]any{}}
	var setups []float64
	var s *core.Session
	for range cfg.setups {
		t := time.Now()
		var err error
		if s, err = w.ready(ctx, w.workers, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	window, minOps := cfg.window, samplesFor(0.9)
	if cfg.trace {
		window, minOps = cfg.window/2, 0
	}
	// A tenth of the window of ops on a throwaway session grows the heap
	// and warms the caches of the process before anything is timed.
	warm, err := w.ready(ctx, w.workers, nil)
	if err != nil {
		return nil, err
	}
	w.measure(ctx, warm, nil, cfg.window/10, 0)
	un := w.measure(ctx, s, nil, window, minOps)
	w1, err := w.verify(ctx, un, res)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.endToEnd(setups, latencies(un.recs), un.wall, un.cpu, un.peakRSSMB)
		return res, nil
	}

	rec := newRecorder()
	ts, err := w.ready(ctx, w.workers, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr := w.measure(ctx, ts, rec, window, 0)
	pprof.StopCPUProfile()
	if _, err := w.verify(ctx, tr, res); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		res.metrics["cpu_share."+b] = v
	}
	w.layerMetrics(res, un, tr, rec.stats(), w1)
	res.info["traced_ops"] = len(tr.recs)
	return res, rec.write(filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-spans.csv.gz", cfg.workload, cfg.seed)))
}

// layerMetrics derives the per-layer metrics of an in-process workload
// from its traced loop tr, the untraced loop un over the same ops, and
// the Workers=1 replay times w1 of un's replayed ops.
func (w *inproc) layerMetrics(res *result, un, tr phase, st layerStats, w1 map[int]time.Duration) {
	m := res.metrics
	ops := float64(len(tr.recs))
	ms := func(k kind) float64 { return median(millis(st.dur[k])) }
	m["core.explain_cells.ms.p50"] = ms(kExplainCells)
	m["core.explain_constraints.ms.p50"] = ms(kExplainConstraints)
	m["core.explain_groups.ms.p50"] = ms(kExplainGroups)
	m["core.target.us.p50"] = ms(kTarget) * 1e3
	m["core.self_ms_per_op"] = float64(st.coreSelf) / 1e6 / ops
	m["repair.calls_per_op"] = float64(len(st.dur[kRepair])) / ops
	m["repair.us_per_call.p50"] = ms(kRepair) * 1e3
	var opWall time.Duration
	for _, r := range tr.recs {
		opWall += r.latency
	}
	m["repair.busy_share"] = float64(st.repairSum) / (float64(opWall) * float64(w.workers))
	m["shapley.evals_per_op"] = float64(tr.hits+tr.misses) / ops
	m["exec.cache.hit_ratio"] = ratio(tr.hits, tr.hits+tr.misses)
	m["exec.repair_targets.hit_ratio"] = ratio(tr.rtHits, tr.rtHits+tr.rtMiss)
	if w.workers > 1 {
		var serial, parallel []float64
		for i, d := range w1 {
			serial = append(serial, float64(d))
			parallel = append(parallel, float64(un.recs[i].latency))
		}
		m["exec.pool.speedup"] = median(serial) / median(parallel)
	}
	m["table.edit_us.p50"] = ms(kEdit) * 1e3
	m["dc.violations_us.p50"] = ms(kViolations) * 1e3
	m["dc.plan.dc_edit_us.p50"] = ms(kDCEdit) * 1e3
	m["runtime.alloc_bytes_per_op"] = tr.allocBytes / ops
	m["runtime.gc_cpu_share"] = tr.gcCPU / tr.totalCPU
	m["trace.overhead"] = 1 - (ops/tr.wall.Seconds())/(float64(len(un.recs))/un.wall.Seconds())
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func latencies(recs []opRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.latency
	}
	return out
}

// runtimeSamples are the runtime/metrics readRuntime returns, in order.
var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the peak resident set, of /proc/<pid>.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
