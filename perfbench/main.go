// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks the program's outputs, and prints as the last line of
// standard output one JSON object with the keys correct, attempted, failed
// and metrics. With -trace 0 the metrics are the end-to-end metrics,
// measured with tracing off; with -trace 1 they are the per-layer metrics
// of a traced run. The line before it holds the run's provenance. DESIGN.md
// lists the workloads, the metrics and what each layer metric should move.
//
// run.sh builds this program and trex-server from the checkout and runs it;
// -workload all runs the three workloads in turn:
//
//	bash perfbench/run.sh --workload explain-soccer48 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// layer a workload does not exercise reads 0.
var perLayer = append([]metric{
	{"core.explain_cells.ms.p50", "ms"},
	{"core.explain_constraints.ms.p50", "ms"},
	{"core.explain_groups.ms.p50", "ms"},
	{"core.target.us.p50", "us"},
	{"core.self_ms_per_op", "ms"},
	{"repair.calls_per_op", "count"},
	{"repair.us_per_call.p50", "us"},
	{"repair.busy_share", "ratio"},
	{"shapley.evals_per_op", "count"},
	{"exec.cache.hit_ratio", "ratio"},
	{"exec.repair_targets.hit_ratio", "ratio"},
	{"exec.pool.speedup", "ratio"},
	{"table.edit_us.p50", "us"},
	{"dc.violations_us.p50", "us"},
	{"dc.plan.dc_edit_us.p50", "us"},
	{"server.explain_cells.ms.p50", "ms"},
	{"server.explain_cells.ms.p90", "ms"},
	{"server.explain_constraints.ms.p50", "ms"},
	{"server.edit.ms.p50", "ms"},
	{"server.violations.ms.p50", "ms"},
	{"server.restore.ms.p50", "ms"},
	{"server.restore.count", "count"},
	{"server.spool_bytes_per_session", "B"},
	{"server.refused_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_ms.p90", "ms"},
	{"trace.overhead", "ratio"},
}, shareMetrics()...)

func shareMetrics() []metric {
	out := make([]metric, len(shareBuckets))
	for i, b := range shareBuckets {
		out[i] = metric{"cpu_share." + b, "ratio"}
	}
	return out
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	// window is how long the timed phase runs; a traced run splits it
	// between an untraced and a traced half.
	window time.Duration
	trace  bool
	// work is the directory runs write scratch files, traces and results to.
	work string
	// server is the trex-server binary server-mix starts.
	server string
	// setups is how often set-up is repeated for setup_s.
	setups int
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	// problems describes failed ops, for standard error.
	problems []string
	metrics  map[string]float64
	// info goes to the provenance line: sample counts and the like.
	info map[string]any
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd fills in the end-to-end metrics of a timed loop: set-up times,
// op latencies, the loop's wall and CPU time, and the peak RSS.
func (r *result) endToEnd(setups []float64, latencies []time.Duration, wall, cpu time.Duration, peakRSSMB float64) {
	lat := millis(latencies)
	n := float64(len(lat))
	r.info["ops"] = len(lat)
	r.info["tail_percentile"] = tailPercentile(len(lat))
	r.metrics["setup_s"] = median(setups)
	r.metrics["op_ms.p50"] = median(lat)
	r.metrics["op_ms.p90"] = percentile(lat, 0.9)
	r.metrics["ops_per_s"] = n / wall.Seconds()
	r.metrics["cpu_ms_per_op"] = float64(cpu) / 1e6 / n
	r.metrics["peak_rss_mb"] = peakRSSMB
	r.metrics["success_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
}

// workloads are the benchmark's workloads, in the order -workload all
// runs them.
var workloads = []struct {
	name string
	run  func(context.Context, config) (*result, error)
}{
	{"explain-soccer48", runSoccer48},
	{"debug-laliga", runLaLiga},
	{"server-mix", runServerMix},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "spin" {
		if err := spin(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spin:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "explain-soccer48, debug-laliga, server-mix, or all to run the three in turn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; files are written under <root>/.bench_build")
	server := fs.String("server", "", "trex-server binary for server-mix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		work:   filepath.Join(*root, ".bench_build", "perfbench-runs"),
		server: *server,
		setups: 31,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	stopWarm, err := keepWarm()
	if err != nil {
		return err
	}
	defer stopWarm()
	prov := provenance(*root)
	found := false
	for _, w := range workloads {
		if *workload != w.name && *workload != "all" {
			continue
		}
		found = true
		cfg.workload = w.name
		if err := runOne(cfg, w.run, prov); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if !found {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	return nil
}

// runOne runs one workload and prints its provenance line and its result
// line, and writes both to the work directory.
func runOne(cfg config, runWorkload func(context.Context, config) (*result, error), prov map[string]any) error {
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", p)
	}
	catalog := endToEnd
	if cfg.trace {
		catalog = perLayer
	}
	out, err := report(res, catalog, !cfg.trace)
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	info, err := json.Marshal(map[string]any{"provenance": prov, "workload": cfg.workload, "seed": cfg.seed, "trace": trace, "info": res.info})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	if err := os.WriteFile(filepath.Join(cfg.work, name), append(append(info, '\n'), out...), 0o644); err != nil {
		return err
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
	return nil
}

// report renders the result line: every metric of catalog, by name, with
// its unit. With requireAll a metric the workload did not report is an
// error; otherwise it reads 0.
func report(res *result, catalog []metric, requireAll bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(catalog))
	for _, m := range catalog {
		v, ok := res.metrics[m.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("workload did not report %s", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("workload reported metrics outside the catalog: %v", extra)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
}
