package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// The server-mix workload: the demo server as an operator runs it. One
// trex-server child with a serial engine per session and a spool, eight
// La Liga sessions against a live budget of three, and a skewed choice of
// session, so that a share of requests restore a session from the spool.
// Requests arrive open-loop at a fixed Poisson rate over one connection
// per CPU.
const (
	mixSessions = 8
	mixBudget   = 3
	// mixRate is fixed so that every build is offered the same load. It is
	// about a sixth of what one connection completes back to back at HEAD
	// on a 2-vCPU Xeon virtual machine (about 250 requests/s). At half that
	// capacity, queueing behind the host's stalls moved p50 by up to 2x
	// between runs.
	mixRate = 40.0
	// mixSamples is the cell explanation's sampling budget.
	mixSamples = 16
	mixCell    = "t5[Country]"
)

type reqKind uint8

const (
	rqCells reqKind = iota
	rqConstraints
	rqSetCell
	rqInsert
	rqDelete
	rqViolations
	rqCreate
)

// mixWeights are the request mix in parts per hundred; an insert/delete
// slot inserts a row, or deletes it again when the session has one.
var mixWeights = []struct {
	kind   reqKind
	weight int
}{{rqCells, 30}, {rqConstraints, 35}, {rqSetCell, 18}, {rqInsert, 4}, {rqViolations, 12}, {rqCreate, 1}}

// request is one scheduled request and, once sent, its outcome.
type request struct {
	due   time.Duration
	kind  reqKind
	sess  int // index of the target session; creates have none
	seed  int64
	value string // setCell
	row   int    // deleteRow, 1-based
	// Outcome.
	status         int
	sent, done     time.Duration // since the start of the run
	body           []byte
	restored       bool // the LRU model says the session was spooled
	transportError error
}

// schedule generates the run's requests from seed: Poisson arrivals at
// mixRate over window, kinds by mixWeights, sessions by sessionWeights.
func schedule(seed int64, window time.Duration) []*request {
	rng := rand.New(rand.NewSource(seed))
	zipf := sessionWeights()
	extra := make([]int, mixSessions)
	var out []*request
	var t float64
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / mixRate
		if t >= window.Seconds() {
			return out
		}
		r := &request{due: time.Duration(t * float64(time.Second)), seed: mix(seed, i), sess: pick(rng, zipf)}
		roll := rng.Intn(100)
		for _, w := range mixWeights {
			if roll < w.weight {
				r.kind = w.kind
				break
			}
			roll -= w.weight
		}
		switch r.kind {
		case rqSetCell:
			r.value = debugCities[rng.Intn(len(debugCities))]
		case rqInsert:
			if extra[r.sess] > 0 {
				r.kind, r.row = rqDelete, 6+extra[r.sess]
				extra[r.sess]--
			} else {
				extra[r.sess]++
			}
		}
		out = append(out, r)
	}
}

func pick(rng *rand.Rand, weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	x := rng.Float64() * sum
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// lruModel predicts which requests land on a spooled session: the server
// evicts its least recently touched session when more than mixBudget are
// live, so a session is spooled once mixBudget others were touched after
// it. Requests in flight when the server picks a victim can make it
// differ from the server now and then.
type lruModel struct {
	mu    sync.Mutex
	clock int
	last  map[string]int
}

func (l *lruModel) touch(id string) (spooled bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.last[id]; ok {
		newer := 0
		for other, t := range l.last {
			if other != id && t > prev {
				newer++
			}
		}
		spooled = newer >= mixBudget
	}
	l.clock++
	l.last[id] = l.clock
	return spooled
}

// laligaInput is the CSV and constraint text every session is created from.
func laligaInput() (csv, dcs string, err error) {
	ll := data.NewLaLiga()
	var b bytes.Buffer
	if err := ll.Dirty.WriteCSV(&b); err != nil {
		return "", "", err
	}
	lines := make([]string, len(ll.DCs))
	for i, c := range ll.DCs {
		lines[i] = c.String()
	}
	return b.String(), strings.Join(lines, "\n"), nil
}

// serverProc is a running server child.
type serverProc struct {
	cmd   *exec.Cmd
	url   string
	spool string
	ids   []string
	model *lruModel
}

// startServer starts the server command line argv with the workload's
// flags, creates the sessions and runs their first repair.
func startServer(ctx context.Context, argv []string, spool, csv, dcs string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := append(argv[1:len(argv):len(argv)], "-addr", addr, "-workers", "1", "-spool", spool, "-max-live-sessions", strconv.Itoa(mixBudget))
	cmd := exec.Command(argv[0], args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", argv[0], err)
	}
	p := &serverProc{cmd: cmd, url: "http://" + addr, spool: spool, model: &lruModel{last: map[string]int{}}}
	c := newClient()
	defer c.CloseIdleConnections()
	if err := p.setUp(ctx, c, csv, dcs); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// setUp waits until the server answers, then creates the sessions and
// runs their first repair.
func (p *serverProc) setUp(ctx context.Context, c *http.Client, csv, dcs string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/api/algorithms", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not come up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	body, _ := json.Marshal(map[string]string{"csv": csv, "dcs": dcs, "algorithm": "algorithm1"}) // strings always marshal
	for range mixSessions {
		var sess struct {
			ID string `json:"id"`
		}
		if err := p.post(ctx, c, "/api/session", body, &sess); err != nil {
			return fmt.Errorf("creating a session: %w", err)
		}
		if sess.ID == "" {
			return errors.New("create returned no session id")
		}
		p.model.touch(sess.ID)
		if err := p.post(ctx, c, "/api/session/"+sess.ID+"/repair", []byte("{}"), nil); err != nil {
			return err
		}
		p.model.touch(sess.ID)
		p.ids = append(p.ids, sess.ID)
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// post sends one set-up request and decodes a 200 answer into out.
func (p *serverProc) post(ctx context.Context, c *http.Client, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// stop drains the server with SIGTERM, kills it if it has not exited
// within 30 seconds, and waits for it.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return p.cmd.Wait()
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("server did not drain within 30s")
	}
}

// procCPU is the user plus system CPU time of process pid.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// mixPhase is one timed open-loop run against one server.
type mixPhase struct {
	reqs      []*request
	wall, cpu time.Duration
	peakRSSMB float64
	spoolB    float64 // bytes per spooled session at the end
}

// sessionWeights is the skew of the session choice: session j is picked
// with weight 1/(j+1)^1.1.
func sessionWeights() []float64 {
	w := make([]float64, mixSessions)
	for j := range w {
		w[j] = 1 / math.Pow(float64(j+1), 1.1)
	}
	return w
}

// connectionOf assigns sessions to conns connections so that each carries
// about the same share of requests: heaviest session first, each to the
// connection with the least weight so far.
func connectionOf(weights []float64, conns int) []int {
	load := make([]float64, conns)
	out := make([]int, len(weights))
	for j, w := range weights {
		c := 0
		for k := range load {
			if load[k] < load[c] {
				c = k
			}
		}
		out[j] = c
		load[c] += w
	}
	return out
}

// drive sends the schedule over one connection per CPU and waits for
// every answer. A session's requests all go over one connection, so
// each session sees them in schedule order; creates go over the first.
func drive(ctx context.Context, p *serverProc, reqs []*request, csv, dcs string) (mixPhase, error) {
	conns := runtime.NumCPU()
	connOf := connectionOf(sessionWeights(), conns)
	queues := make([][]*request, conns)
	for _, r := range reqs {
		c := 0
		if r.kind != rqCreate {
			c = connOf[r.sess]
		}
		queues[c] = append(queues[c], r)
	}
	pid := p.cmd.Process.Pid
	cpu0 := procCPU(pid)
	start := time.Now()
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			openLoop(realClock{}, start, q, func(r *request) { p.send(ctx, c, r, start, csv, dcs) })
		}()
	}
	wg.Wait()
	ph := mixPhase{reqs: reqs, wall: time.Since(start), cpu: procCPU(pid) - cpu0, peakRSSMB: peakRSSMB(strconv.Itoa(pid))}
	entries, err := os.ReadDir(p.spool)
	if err != nil {
		return ph, err
	}
	var n, size float64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".json") {
			n++
			size += float64(info.Size())
		}
	}
	if n > 0 {
		ph.spoolB = size / n
	}
	return ph, nil
}

// clock is the time source of the open loop, replaceable in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends each request of q at start+due, or as soon as the
// previous one returned when it is behind. send records sent and done;
// latency is done − due, so a stall also counts against every request
// that queued behind it.
func openLoop(clk clock, start time.Time, q []*request, send func(*request)) {
	for _, r := range q {
		clk.SleepUntil(start.Add(r.due))
		send(r)
	}
}

func (r *request) latency() time.Duration { return r.done - r.due }
func (r *request) late() time.Duration    { return r.sent - r.due }
func (r *request) service() time.Duration { return r.done - r.sent }

// send issues r and records its outcome.
func (p *serverProc) send(ctx context.Context, c *http.Client, r *request, start time.Time, csv, dcs string) {
	var method, path string
	var body any
	id := ""
	if r.kind != rqCreate {
		id = p.ids[r.sess]
	}
	switch r.kind {
	case rqCells:
		method, path, body = http.MethodPost, "/explain", map[string]any{"cell": mixCell, "kind": "cells", "samples": mixSamples, "seed": r.seed}
	case rqConstraints:
		method, path, body = http.MethodPost, "/explain", map[string]any{"cell": mixCell, "kind": "constraints"}
	case rqSetCell:
		method, path, body = http.MethodPost, "/edit", map[string]any{"setCell": "t1[City]", "value": r.value}
	case rqInsert:
		method, path, body = http.MethodPost, "/edit", map[string]any{"insertRow": debugRow}
	case rqDelete:
		method, path, body = http.MethodPost, "/edit", map[string]any{"deleteRow": r.row}
	case rqViolations:
		method, path = http.MethodGet, "/violations"
	case rqCreate:
		method, body = http.MethodPost, map[string]string{"csv": csv, "dcs": dcs, "algorithm": "algorithm1"}
	}
	url := p.url + "/api/session"
	if id != "" {
		url += "/" + id + path
	}
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body) // maps of strings and numbers always marshal
		rd = bytes.NewReader(b)
	}
	r.sent = time.Since(start)
	if id != "" {
		r.restored = p.model.touch(id)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err == nil {
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			r.status = resp.StatusCode
			r.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	r.done = time.Since(start)
	r.transportError = err
	if r.kind == rqCreate && err == nil && r.status == http.StatusOK {
		var s struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(r.body, &s) == nil {
			p.model.touch(s.ID)
		}
	}
}

// refused reports a status the admission ladder or a failure produced.
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusRequestTimeout ||
		status == http.StatusConflict || status >= 500
}

// runServerMix runs server-mix. A traced run splits the window between an
// untraced half against trex-server and a traced half against this
// program's serve mode, the same server with a CPU profile.
func runServerMix(ctx context.Context, cfg config) (*result, error) {
	if cfg.server == "" {
		return nil, errors.New("server-mix needs -server")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	csv, dcs, err := laligaInput()
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}, info: map[string]any{}}
	dir, err := os.MkdirTemp(cfg.work, "server-mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var p *serverProc
	for k := range cfg.setups {
		if p != nil {
			if err := p.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		if p, err = startServer(ctx, []string{cfg.server}, filepath.Join(dir, fmt.Sprintf("spool-%d", k)), csv, dcs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	un, err := drive(ctx, p, schedule(cfg.seed, window), csv, dcs)
	if serr := p.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := verifyMix(ctx, cfg.seed, un.reqs, csv, dcs, res); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.endToEnd(setups, mapReqs(un.reqs, (*request).latency), un.wall, un.cpu, un.peakRSSMB)
		return res, nil
	}

	profPath, statsPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "runtime.json")
	tp, err := startServer(ctx, []string{self, "serve", "-profile", profPath, "-stats", statsPath}, filepath.Join(dir, "spool-traced"), csv, dcs)
	if err != nil {
		return nil, err
	}
	// serve starts its profile and runtime snapshot on SIGUSR1.
	if err := tp.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		tp.stop()
		return nil, err
	}
	tr, err := drive(ctx, tp, schedule(cfg.seed, window), csv, dcs)
	if serr := tp.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := verifyMix(ctx, cfg.seed, tr.reqs, csv, dcs, res); err != nil {
		return nil, err
	}
	prof, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		res.metrics["cpu_share."+b] = v
	}
	var rt serveStats
	if b, err := os.ReadFile(statsPath); err != nil {
		return nil, err
	} else if err := json.Unmarshal(b, &rt); err != nil {
		return nil, err
	}
	mixLayerMetrics(res, un, tr, rt)
	res.info["traced_ops"] = len(tr.reqs)
	return res, nil
}

// mixLayerMetrics derives server-mix's per-layer metrics, all measured on
// the client side except the runtime figures the server reports.
func mixLayerMetrics(res *result, un, tr mixPhase, rt serveStats) {
	m := res.metrics
	service := func(keep func(*request) bool) []float64 {
		var out []float64
		for _, r := range tr.reqs {
			if keep(r) {
				out = append(out, float64(r.service())/1e6)
			}
		}
		return out
	}
	isKind := func(ks ...reqKind) func(*request) bool {
		return func(r *request) bool {
			for _, k := range ks {
				if r.kind == k {
					return true
				}
			}
			return false
		}
	}
	cells := service(isKind(rqCells))
	m["server.explain_cells.ms.p50"] = median(cells)
	m["server.explain_cells.ms.p90"] = percentile(cells, 0.9)
	m["server.explain_constraints.ms.p50"] = median(service(isKind(rqConstraints)))
	m["server.edit.ms.p50"] = median(service(isKind(rqSetCell, rqInsert, rqDelete)))
	m["server.violations.ms.p50"] = median(service(isKind(rqViolations)))
	restores := service(func(r *request) bool { return r.restored })
	m["server.restore.ms.p50"] = median(restores)
	m["server.restore.count"] = float64(len(restores))
	m["server.spool_bytes_per_session"] = tr.spoolB
	n := float64(len(tr.reqs))
	m["server.refused_ratio"] = float64(len(service(func(r *request) bool { return refused(r.status) }))) / n
	m["runtime.alloc_bytes_per_op"] = rt.AllocBytes / n
	if rt.TotalCPU > 0 {
		m["runtime.gc_cpu_share"] = rt.GCCPU / rt.TotalCPU
	}
	m["loadgen.late_ms.p90"] = percentile(millis(mapReqs(tr.reqs, (*request).late)), 0.9)
	m["trace.overhead"] = 1 - (n/tr.wall.Seconds())/(float64(len(un.reqs))/un.wall.Seconds())
}

func mapReqs(reqs []*request, f func(*request) time.Duration) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		out[i] = f(r)
	}
	return out
}

type explainJSON struct {
	Cell      string       `json:"cell"`
	Target    string       `json:"target"`
	Kind      string       `json:"kind"`
	Algorithm string       `json:"algorithm"`
	Entries   []core.Entry `json:"entries"`
}

type violationsJSON struct {
	Violations []struct {
		Constraint string `json:"constraint"`
		Row1       int    `json:"row1"`
		Row2       int    `json:"row2"`
	} `json:"violations"`
}

// verifyMix checks every answer against an in-process core.Session per
// server session that sees the same edits. Every request must answer 200;
// every cell explanation must sum to v(N) − v(∅); a seeded sample of
// explanations and violation lists must match the in-process answer bit
// for bit.
func verifyMix(ctx context.Context, seed int64, reqs []*request, csv, dcs string, res *result) error {
	mirrors := make([]*core.Session, mixSessions)
	for j := range mirrors {
		t, err := table.ReadCSV(strings.NewReader(csv))
		if err != nil {
			return err
		}
		cs, err := dc.ParseSet(dcs)
		if err != nil {
			return err
		}
		if mirrors[j], err = core.NewSessionWith(repair.NewAlgorithm1(), cs, t, core.SessionOptions{Workers: 1}); err != nil {
			return err
		}
	}
	res.attempted += len(reqs)
	for i, r := range reqs {
		if r.transportError != nil || r.status != http.StatusOK {
			res.fail("request %d (kind %d): status %d, %v: %s", i, r.kind, r.status, r.transportError, r.body)
			continue
		}
		if r.kind == rqCreate {
			continue
		}
		if err := checkAnswer(ctx, mirrors[r.sess], r, replayed(seed, i)); err != nil {
			res.fail("request %d (kind %d, session %d): %v", i, r.kind, r.sess, err)
		}
	}
	return nil
}

// checkAnswer applies r to the mirror session s and checks the answer.
func checkAnswer(ctx context.Context, s *core.Session, r *request, compare bool) error {
	cell, err := s.Dirty().ParseRefName(mixCell)
	if err != nil {
		return err
	}
	switch r.kind {
	case rqSetCell:
		ref, err := s.Dirty().ParseRefName("t1[City]")
		if err != nil {
			return err
		}
		return s.SetCell(ref, table.ParseValue(r.value))
	case rqInsert:
		vals := make([]table.Value, len(debugRow))
		for j, f := range debugRow {
			vals[j] = table.ParseValue(f)
		}
		return s.InsertRow(vals)
	case rqDelete:
		return s.DeleteRow(r.row - 1)
	case rqViolations:
		if !compare {
			return nil
		}
		var got violationsJSON
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		vs, err := s.Violations()
		if err != nil {
			return err
		}
		if len(vs) != len(got.Violations) {
			return fmt.Errorf("%d violations, in-process %d", len(got.Violations), len(vs))
		}
		for k, v := range vs {
			g := got.Violations[k]
			if g.Constraint != v.Constraint.ID || g.Row1 != v.Row1+1 || g.Row2 != v.Row2+1 {
				return fmt.Errorf("violation %d differs from the in-process one", k)
			}
		}
		return nil
	}
	var got explainJSON
	if err := json.Unmarshal(r.body, &got); err != nil {
		return err
	}
	report := &core.Report{Kind: got.Kind, Cell: got.Cell, Target: got.Target, Algorithm: got.Algorithm, Entries: got.Entries}
	if r.kind == rqCells {
		gap, err := efficiencyGap(ctx, s, cell, false)
		if err != nil {
			return err
		}
		if sum := entrySum(report); math.Abs(sum-gap) > 1e-9 {
			return fmt.Errorf("cell values sum to %v, v(N)-v(empty) is %v", sum, gap)
		}
	}
	if !compare {
		return nil
	}
	exp := s.Explainer()
	var want *core.Report
	if r.kind == rqCells {
		want, err = exp.ExplainCells(ctx, cell, core.CellExplainOptions{Samples: mixSamples, Seed: r.seed, Workers: 1})
	} else {
		want, err = exp.ExplainConstraints(ctx, cell)
	}
	if err != nil {
		return err
	}
	if !sameReport(report, want) {
		return errors.New("answer differs from the in-process session")
	}
	return nil
}
