package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain lets server-mix start this test binary in serve mode, as the
// benchmark binary starts itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A smoke-size run of every workload, untraced and traced: every op
// passes its checks and every metric of the catalog is reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	server := filepath.Join(t.TempDir(), "trex-server")
	if out, err := exec.Command("go", "build", "-o", server, "repro/cmd/trex-server").CombinedOutput(); err != nil {
		t.Fatalf("building trex-server: %v\n%s", err, out)
	}
	for _, w := range workloads {
		name := w.name
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, window: 400 * time.Millisecond, trace: trace,
				work: t.TempDir(), server: server, setups: 2}
			if name == "server-mix" {
				cfg.window = 2 * time.Second // about 60 requests in each half
			}
			res, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, res.failed, res.attempted, res.problems)
			}
			catalog := endToEnd
			if trace {
				catalog = perLayer
			}
			if _, err := report(res, catalog, !trace); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				for _, m := range endToEnd {
					if res.metrics[m.name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, res.metrics[m.name])
					}
				}
				continue
			}
			var share float64
			for _, b := range shareBuckets {
				share += res.metrics["cpu_share."+b]
			}
			if share != 0 && (share < 0.999 || share > 1.001) {
				t.Errorf("%s: CPU shares sum to %v", name, share)
			}
			want := []string{"runtime.alloc_bytes_per_op"}
			if name == "server-mix" {
				want = append(want, "server.explain_cells.ms.p50", "server.edit.ms.p50")
			} else {
				want = append(want, "core.explain_cells.ms.p50", "core.self_ms_per_op", "repair.calls_per_op", "shapley.evals_per_op")
			}
			for _, m := range want {
				if res.metrics[m] <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", name, m, res.metrics[m])
				}
			}
		}
	}
}

// The catalogs the program reports are the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestBucketOfLeafPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/dc.(*LiveViolationSet).Append":        "dc",
		"repro/internal/dc/plan.(*Plan).Scan":                 "dc.plan",
		"repro/internal/table.(*Table).CopyFrom":              "table",
		"repro/internal/core.(*Explainer).ExplainCells.func1": "core",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKey":             "runtime",
		"encoding/json.(*encodeState).marshal":                "other",
		"":                                                    "other",
	} {
		if got := bucketOf(name); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// cpuShares decodes a real profile of this process: the shares of one
// busy loop sum to one.
func TestCPUSharesOfARealProfile(t *testing.T) {
	f := filepath.Join(t.TempDir(), "cpu.pprof")
	out, err := os.Create(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		calibrationSink += uint64(len(funcPackage("repro/internal/dc.(*Kernel).Filter")))
	}
	pprof.StopCPUProfile()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(b)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("the busy loop in package main is not attributed to other: %v", shares)
	}
}
