package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/server"
	"repro/internal/shapley"
	"repro/internal/table"
)

// PerfResult is one machine-readable benchmark row of a BENCH_<n>.json
// file: the perf trajectory the ROADMAP asks every optimisation PR to
// extend.
type PerfResult struct {
	// Name is the scenario id, e.g. "cellgame-eval/scratch/rows=32".
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// N is the iteration count the timing was measured over.
	N int `json:"n"`
	// P99Ns is the 99th-percentile request latency in nanoseconds; only
	// the load scenarios (server-saturation/*) report it.
	P99Ns float64 `json:"p99_ns,omitempty"`
	// RejectionRate is the fraction of requests shed with 429 by admission
	// control; only the load scenarios report it.
	RejectionRate float64 `json:"rejection_rate,omitempty"`
}

// PerfReport is the top-level BENCH_<n>.json document.
type PerfReport struct {
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// GOARCH/GOOS identify the machine class.
	GOARCH string `json:"goarch"`
	GOOS   string `json:"goos"`
	// Results are the scenario rows, in registration order.
	Results []PerfResult `json:"results"`
}

// perfScenario is one registered micro-benchmark. Either bench runs under
// testing.Benchmark, or custom produces the row directly (load scenarios
// that measure latency distributions rather than tight loops).
type perfScenario struct {
	name   string
	bench  func(b *testing.B)
	custom func() (PerfResult, error)
}

// EvalHarnessGame builds the canonical rows×3 toy cell game (one FD, one
// dirty cell) over the given black box. It is shared by the root A/B
// benchmarks and the -perf scenarios so both measure the same instance.
func EvalHarnessGame(rows int, alg repair.Algorithm) (*core.CellGame, error) {
	grid := make([][]string, rows)
	for i := range grid {
		grid[i] = []string{"x", "1", "a"}
	}
	grid[1][1] = "2"
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		return nil, err
	}
	exp, err := core.NewExplainer(alg, cs, tbl)
	if err != nil {
		return nil, err
	}
	cell := table.CellRef{Row: 1, Col: 1}
	return exp.NewCellGame(cell, tbl.GetRef(cell), core.ReplaceWithNull), nil
}

// perfScenarios builds the registered scenarios. short trims the expensive
// end-to-end rows for CI smoke runs; workers is the engine parallelism of
// the multi-core rows (0 = GOMAXPROCS).
func perfScenarios(short bool, workers int) ([]perfScenario, error) {
	ctx := context.Background()
	harness, err := EvalHarnessGame(32, repair.Passthrough{})
	if err != nil {
		return nil, err
	}
	coalition := make([]bool, harness.NumPlayers())
	for i := range coalition {
		coalition[i] = i%2 == 0
	}
	out := []perfScenario{
		{name: "cellgame-eval/clone/rows=32", bench: func(b *testing.B) {
			legacy := harness.CloneEval()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := legacy.SampleValue(ctx, coalition, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "cellgame-eval/scratch/rows=32", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := harness.Value(ctx, coalition); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "cellgame-sampleall/clone/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, harness.CloneEval(), shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "cellgame-sampleall/walk/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, harness, shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	// The in-place repair protocol: one coalition evaluation against the
	// real Algorithm 1 on the paper's table, through the legacy
	// clone-per-repair path (PlannedRepairer hidden behind Func) and the
	// pooled RepairInto path. The scratch row is the PR's headline number:
	// zero steady-state bytes in the repairer.
	ll, alg := dataLaLiga()
	target, _, err := func() (table.Value, bool, error) {
		exp, err := core.NewExplainer(alg, ll.DCs, ll.Dirty)
		if err != nil {
			return table.Null(), false, err
		}
		return exp.Target(ctx, ll.CellOfInterest)
	}()
	if err != nil {
		return nil, err
	}
	newLaligaCellGame := func(a repair.Algorithm) (*core.CellGame, error) {
		exp, err := core.NewExplainer(a, ll.DCs, ll.Dirty)
		if err != nil {
			return nil, err
		}
		return exp.NewCellGame(ll.CellOfInterest, target, core.ReplaceWithNull), nil
	}
	scratchGame, err := newLaligaCellGame(alg)
	if err != nil {
		return nil, err
	}
	cloneGame, err := newLaligaCellGame(repair.Func{AlgName: alg.Name(), Fn: alg.Repair})
	if err != nil {
		return nil, err
	}
	repairCoalition := make([]bool, scratchGame.NumPlayers())
	for i := range repairCoalition {
		repairCoalition[i] = i%3 != 0
	}
	out = append(out,
		perfScenario{name: "evalrepair/algorithm1-laliga/clone", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cloneGame.Value(ctx, repairCoalition); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "evalrepair/algorithm1-laliga/scratch", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scratchGame.Value(ctx, repairCoalition); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "cellgame-sampleall/algorithm1-laliga/clone/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, cloneGame.CloneEval(), shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "cellgame-sampleall/algorithm1-laliga/walk/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, scratchGame, shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// The group game: batch-mask clone path vs the new prefix walk.
	groupExp, err := core.NewExplainer(alg, ll.DCs, ll.Dirty)
	if err != nil {
		return nil, err
	}
	groupGame := groupExp.NewGroupGame(ll.CellOfInterest, target, core.ReplaceWithNull, groupExp.RowGroups(ll.CellOfInterest))
	out = append(out,
		perfScenario{name: "groupgame-sampleall/algorithm1-laliga/clone/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, groupGame.CloneEval(), shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "groupgame-sampleall/algorithm1-laliga/walk/m=8", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, groupGame, shapley.Options{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// Violation scans: indexed vs cached buckets on a generated table.
	soccer := data.GenerateSoccer(data.SoccerConfig{Leagues: 4, TeamsPerLeague: 32, Seed: 11})
	fd := dc.MustParse("C1: !(t1.League = t2.League & t1.Country != t2.Country)")
	out = append(out,
		perfScenario{name: "violations/indexed", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fd.ViolationsIndexed(soccer); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/scan-cache", bench: func(b *testing.B) {
			ix := dc.NewScanIndex()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fd.ViolationsCached(soccer, ix); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// Per-bucket delta maintenance: a single-cell edit before every scan.
	// The rebuild row pays a full bucket build per scan; the delta row
	// catches up from the table's edit log, touching only the two buckets
	// the edited row moves between.
	editTable := data.GenerateSoccer(data.SoccerConfig{Leagues: 4, TeamsPerLeague: 32, Seed: 12})
	countryCol := editTable.Schema().MustIndex("Country")
	editValues := [2]table.Value{table.String("Spain"), table.String("Italy")}
	out = append(out,
		perfScenario{name: "violations/edit/rebuild", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editTable.Set(1, countryCol, editValues[i%2])
				if _, err := fd.ViolationsIndexed(editTable); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/edit/delta", bench: func(b *testing.B) {
			ix := dc.NewScanIndex()
			if _, err := fd.ViolationsCached(editTable, ix); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editTable.Set(1, countryCol, editValues[i%2])
				if _, err := fd.ViolationsCached(editTable, ix); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The live violation index: the same edit-per-scan workload, but the
		// violation *list* is maintained too — an edit retracts and
		// re-derives one row's pairs instead of re-checking every
		// intra-bucket pair. This row is the PR 3 headline against
		// violations/edit/delta.
		perfScenario{name: "violations/edit/live", bench: func(b *testing.B) {
			live := dc.NewLiveViolationSet()
			if _, err := live.Violations(fd, editTable); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editTable.Set(1, countryCol, editValues[i%2])
				if _, err := live.Violations(fd, editTable); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Point queries after an edit: the session workload (edit one cell,
		// re-check one row). A fresh index pays a full O(rows) bucket build
		// per query; the pooled index replays one edit.
		perfScenario{name: "rowcheck/edit/rebuild", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editTable.Set(1, countryCol, editValues[i%2])
				if _, err := fd.ViolatesRowCached(editTable, 1, dc.NewScanIndex()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "rowcheck/edit/delta", bench: func(b *testing.B) {
			ix := dc.NewScanIndex()
			if _, err := fd.ViolatesRowCached(editTable, 1, ix); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				editTable.Set(1, countryCol, editValues[i%2])
				if _, err := fd.ViolatesRowCached(editTable, 1, ix); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// Structural deltas: a typed row insert, swap-delete, or batch before
	// every scan. The rebuild rows force a full live derivation (a fresh
	// set per scan, paying the whole bucket build and pair derivation); the
	// delta rows replay the typed structural edits from the table's log,
	// retracting and deriving exactly the touched rows' pairs. Every
	// iteration restores the row count with the mirrored op so the table
	// never drifts; the restore op lands in the next scan's replay window,
	// so the delta rows price the one-insert-one-delete steady state.
	structTable := data.GenerateSoccer(data.SoccerConfig{Leagues: 4, TeamsPerLeague: 32, Seed: 14})
	structCountry := structTable.Schema().MustIndex("Country")
	structRow := structTable.Row(7)
	out = append(out,
		perfScenario{name: "violations/insert/rebuild", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := structTable.Append(structRow); err != nil {
					b.Fatal(err)
				}
				live := dc.NewLiveViolationSet()
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
				structTable.DeleteRow(structTable.NumRows() - 1)
			}
		}},
		perfScenario{name: "violations/insert/delta", bench: func(b *testing.B) {
			live := dc.NewLiveViolationSet()
			if _, err := live.Violations(fd, structTable); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := structTable.Append(structRow); err != nil {
					b.Fatal(err)
				}
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
				structTable.DeleteRow(structTable.NumRows() - 1)
			}
		}},
		perfScenario{name: "violations/delete/rebuild", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vals := structTable.Row(7)
				structTable.DeleteRow(7)
				live := dc.NewLiveViolationSet()
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
				if err := structTable.Append(vals); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/delete/delta", bench: func(b *testing.B) {
			live := dc.NewLiveViolationSet()
			if _, err := live.Violations(fd, structTable); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals := structTable.Row(7)
				structTable.DeleteRow(7)
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
				if err := structTable.Append(vals); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// One generation per batch: two inserts, a cell flip, two
		// swap-deletes — net zero rows, replayed as one delta window.
		perfScenario{name: "violations/batch/rebuild", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := structBatch(structTable, structRow, structCountry, editValues[i%2]); err != nil {
					b.Fatal(err)
				}
				live := dc.NewLiveViolationSet()
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/batch/delta", bench: func(b *testing.B) {
			live := dc.NewLiveViolationSet()
			if _, err := live.Violations(fd, structTable); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := structBatch(structTable, structRow, structCountry, editValues[i%2]); err != nil {
					b.Fatal(err)
				}
				if _, err := live.Violations(fd, structTable); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// Large-table scans: the pair-check inner loop dominates here, so these
	// rows isolate the compiled-kernel win and the parallel full
	// derivation. 128 leagues × 24 teams = 3072 rows, FD-shaped buckets of
	// 24 rows each (large enough to cross the live set's parallel-derive
	// threshold). The fixtures are built inside each scenario, behind
	// ResetTimer: megabytes of eagerly-retained setup would shift GC pacing
	// for every allocation-heavy scenario measured in the same process.
	bigSoccer := func() (*table.Table, *dc.Constraint) {
		big := data.GenerateSoccer(data.SoccerConfig{Leagues: 128, TeamsPerLeague: 24, Seed: 13})
		return big, dc.MustParse("C1: !(t1.League = t2.League & t1.Country != t2.Country)")
	}
	out = append(out,
		perfScenario{name: "violations/scan-cache/large", bench: func(b *testing.B) {
			big, bigFD := bigSoccer()
			ix := dc.NewScanIndex()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bigFD.ViolationsCached(big, ix); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/live/derive/large", bench: func(b *testing.B) {
			big, bigFD := bigSoccer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live := dc.NewLiveViolationSet()
				if _, err := live.Violations(bigFD, big); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "violations/edit/live/large", bench: func(b *testing.B) {
			big, bigFD := bigSoccer()
			live := dc.NewLiveViolationSet()
			if _, err := live.Violations(bigFD, big); err != nil {
				b.Fatal(err)
			}
			col := big.Schema().MustIndex("Country")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				big.Set(7, col, editValues[i%2])
				if _, err := live.Violations(bigFD, big); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	// The constraint-set planner: shared-join-key DC sets per-constraint
	// vs planned (see dcset.go).
	out = append(out, dcsetScenarios(short)...)

	// The >64-player coalition cache hit: the packed []uint64 key replacing
	// the old string fallback (which allocated a key string per lookup).
	out = append(out, perfScenario{name: "cache/wide/hit", bench: func(b *testing.B) {
		n := 96
		cached := shapley.NewCached(shapley.GameFunc{N: n, Fn: func(_ context.Context, c []bool) (float64, error) {
			s := 0.0
			for i, in := range c {
				if in {
					s += float64(i)
				}
			}
			return s, nil
		}})
		coalition := make([]bool, n)
		for i := range coalition {
			coalition[i] = i%3 == 0
		}
		if _, err := cached.Value(ctx, coalition); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cached.Value(ctx, coalition); err != nil {
				b.Fatal(err)
			}
		}
	}})

	// The materialization layer: repeat Target() resolution within one
	// session state, and the edit loop's screen refresh (one cell edit,
	// then every report kind re-resolving its target). Without the
	// repair-target cache each Target() re-runs the full black box; with
	// it, the first call per generation repairs and the rest replay the
	// memoized clean-table diff.
	out = append(out,
		perfScenario{name: "target/laliga/repeat", bench: func(b *testing.B) {
			ll, alg := dataLaLiga()
			sess, err := core.NewSession(alg, ll.DCs, ll.Dirty)
			if err != nil {
				b.Fatal(err)
			}
			exp := sess.Explainer()
			if _, _, err := exp.Target(ctx, ll.CellOfInterest); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := exp.Target(ctx, ll.CellOfInterest); err != nil {
					b.Fatal(err)
				}
			}
		}},
		perfScenario{name: "target/laliga/explain-after-edit", bench: func(b *testing.B) {
			ll, alg := dataLaLiga()
			sess, err := core.NewSession(alg, ll.DCs, ll.Dirty)
			if err != nil {
				b.Fatal(err)
			}
			exp := sess.Explainer()
			editRef := table.CellRef{Row: 0, Col: sess.Dirty().Schema().MustIndex("City")}
			editVals := [2]table.Value{table.String("Madrid"), table.String("Valencia")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.SetCell(editRef, editVals[i%2]); err != nil {
					b.Fatal(err)
				}
				// One screen refresh: every report kind (constraints, cells,
				// top-k, rows, columns, interaction, Banzhaf, toward)
				// re-resolves the target of the cell of interest.
				for k := 0; k < 8; k++ {
					if _, _, err := exp.Target(ctx, ll.CellOfInterest); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	)

	// The session engine's shared coalition cache: after one constraint
	// ranking warms the session, every further constraint screen (repeat
	// ranking, Banzhaf, interactions) enumerates against pure cache hits —
	// only the Target() repair re-runs.
	out = append(out, perfScenario{name: "explain-constraints/laliga/shared-cache", bench: func(b *testing.B) {
		ll, alg := dataLaLiga()
		sess, err := core.NewSession(alg, ll.DCs, ll.Dirty)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Explainer().ExplainConstraints(ctx, ll.CellOfInterest); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Explainer().ExplainConstraints(ctx, ll.CellOfInterest); err != nil {
				b.Fatal(err)
			}
		}
	}})

	if !short {
		// End-to-end cell explanation against a real black box. Each
		// iteration explains on a fresh explainer, so it computes its
		// coalition values and Target instead of replaying an earlier
		// iteration's.
		ll, alg := dataLaLiga()
		out = append(out, perfScenario{name: "explain-cells/laliga/m=64", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exp, err := core.NewExplainer(alg, ll.DCs, ll.Dirty)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exp.ExplainCells(ctx, ll.CellOfInterest, core.CellExplainOptions{Samples: 64, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}})

		// The multi-core headline: the same large explain-cells workload
		// serial and fanned across the engine's workers. The chunked
		// fan-out makes both rows produce bit-identical estimates, so the
		// ns/op ratio is pure scheduling win. Fixtures built lazily inside
		// the scenario (see the large-scan comment above).
		largeExplain := func(workers int) func(b *testing.B) {
			return func(b *testing.B) {
				big := data.GenerateSoccer(data.SoccerConfig{Leagues: 4, TeamsPerLeague: 12, Seed: 17})
				country := big.Schema().MustIndex("Country")
				cell := table.CellRef{Row: 5, Col: country}
				big.Set(cell.Row, cell.Col, table.String("Wrongland"))
				cs := data.SoccerDCs()
				sess, err := core.NewSessionWith(repair.NewRuleRepair(cs), cs, big, core.SessionOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				exp := sess.Explainer()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exp.ExplainCells(ctx, cell, core.CellExplainOptions{
						Samples: 32, Seed: int64(i), Workers: workers, RestrictToRelevant: true,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		out = append(out,
			perfScenario{name: "explain-cells/soccer48/m=32/workers=1", bench: largeExplain(1)},
			perfScenario{name: "explain-cells/soccer48/m=32/workers=auto", bench: largeExplain(workers)},
		)

		// Saturation: concurrent explain load against a bounded in-flight
		// budget. Reported alongside ns/op (mean accepted latency) are the
		// p99 accepted latency and the fraction of requests admission
		// control shed with 429 — the load-shedding half of the robustness
		// contract, measured rather than assumed.
		out = append(out, perfScenario{
			name:   "server-saturation/laliga/inflight=2/clients=8",
			custom: func() (PerfResult, error) { return saturationScenario(2, 8, 4) },
		})
	}
	return out, nil
}

// structBatch is the mixed structural edit of the violations/batch rows:
// two inserts, one cell flip, and two swap-deletes bracketed into a
// single generation, leaving the row count unchanged.
func structBatch(t *table.Table, row []table.Value, col int, v table.Value) error {
	return t.ApplyBatch(func(t *table.Table) error {
		if err := t.Append(row); err != nil {
			return err
		}
		if err := t.Append(row); err != nil {
			return err
		}
		t.Set(1, col, v)
		t.DeleteRow(t.NumRows() - 1)
		t.DeleteRow(t.NumRows() - 1)
		return nil
	})
}

// saturationScenario drives clients×perClient explain requests at a
// server whose admission bound is maxInFlight, and summarizes the latency
// distribution of accepted requests plus the rejection rate.
func saturationScenario(maxInFlight, clients, perClient int) (PerfResult, error) {
	// Heavy per-request sampling budgets keep several requests genuinely
	// in flight even on a single-core runner — light requests serialize on
	// the scheduler before admission ever sees contention.
	const samples = 2000
	srv := server.New()
	srv.Workers = 1
	srv.MaxInFlight = maxInFlight
	srv.ExplainSamples = samples
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ll, _ := dataLaLiga()
	var csv bytes.Buffer
	if err := ll.Dirty.WriteCSV(&csv); err != nil {
		return PerfResult{}, err
	}
	var dcLines []string
	for _, c := range ll.DCs {
		dcLines = append(dcLines, c.String())
	}
	body, _ := json.Marshal(map[string]string{
		"csv": csv.String(), "dcs": strings.Join(dcLines, "\n"), "algorithm": "algorithm1",
	})
	resp, err := ts.Client().Post(ts.URL+"/api/session", "application/json", bytes.NewReader(body))
	if err != nil {
		return PerfResult{}, err
	}
	var sess struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil || sess.ID == "" {
		return PerfResult{}, fmt.Errorf("creating saturation session: %v", err)
	}
	cellName := ll.Dirty.RefName(ll.CellOfInterest)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rejected  int
		firstErr  error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req, _ := json.Marshal(map[string]any{
					"cell": cellName, "kind": "cells", "samples": samples, "seed": c*perClient + i,
				})
				start := time.Now()
				resp, err := ts.Client().Post(ts.URL+"/api/session/"+sess.ID+"/explain", "application/json", bytes.NewReader(req))
				elapsed := time.Since(start)
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case resp.StatusCode == http.StatusOK:
					latencies = append(latencies, elapsed)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected++
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("explain status %d", resp.StatusCode)
					}
				}
				mu.Unlock()
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return PerfResult{}, firstErr
	}
	if len(latencies) == 0 {
		return PerfResult{}, fmt.Errorf("saturation run: every request rejected")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	p99 := latencies[(len(latencies)*99+99)/100-1]
	return PerfResult{
		NsPerOp:       float64(total.Nanoseconds()) / float64(len(latencies)),
		N:             len(latencies),
		P99Ns:         float64(p99.Nanoseconds()),
		RejectionRate: float64(rejected) / float64(len(latencies)+rejected),
	}, nil
}

// RunPerf executes every registered perf scenario via testing.Benchmark,
// streams a human-readable line per scenario to w, and returns the
// machine-readable report. workers configures the multi-core rows (0 =
// GOMAXPROCS).
func RunPerf(w io.Writer, short bool, workers int) (*PerfReport, error) {
	scenarios, err := perfScenarios(short, workers)
	if err != nil {
		return nil, err
	}
	report := &PerfReport{Go: runtime.Version(), GOARCH: runtime.GOARCH, GOOS: runtime.GOOS}
	for _, s := range scenarios {
		// Start every scenario from a collected heap so one scenario's
		// garbage does not skew the GC pacing of the next.
		runtime.GC()
		if s.custom != nil {
			row, err := s.custom()
			if err != nil {
				return nil, fmt.Errorf("bench: perf scenario %s: %w", s.name, err)
			}
			row.Name = s.name
			report.Results = append(report.Results, row)
			fmt.Fprintf(w, "%-36s %14.1f ns/op  p99 %.1f ms  rejected %.0f%%\n",
				row.Name, row.NsPerOp, row.P99Ns/1e6, row.RejectionRate*100)
			continue
		}
		r := testing.Benchmark(s.bench)
		if r.N == 0 {
			// testing.Benchmark swallows b.Fatal into a zero result; a zero
			// iteration count means the scenario died, and reporting NaN
			// ns/op would hide it.
			return nil, fmt.Errorf("bench: perf scenario %s failed", s.name)
		}
		row := PerfResult{
			Name:        s.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		report.Results = append(report.Results, row)
		fmt.Fprintf(w, "%-36s %14.1f ns/op %8d B/op %6d allocs/op\n", row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}
	return report, nil
}

// WritePerfJSON runs the perf scenarios and writes the report to path as
// indented JSON — the BENCH_<n>.json artifact of a perf PR. The report is
// staged in a sibling temp file created *before* the scenarios run, so an
// unwritable destination fails in milliseconds instead of after minutes
// of benchmarking, and only renamed over path on full success: a failed
// run can neither clobber a pre-existing report nor leave a truncated
// one, and every write and close error is fatal — CI uploads this file as
// an artifact, and a silent write failure would upload nothing while the
// job reports green.
func WritePerfJSON(w io.Writer, path string, short bool, workers int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("bench: creating perf report %s: %w", tmp, err)
	}
	discard := func() {
		f.Close()
		os.Remove(tmp)
	}
	report, err := RunPerf(w, short, workers)
	if err != nil {
		discard()
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		discard()
		return err
	}
	data = append(data, '\n')
	if _, err := f.Write(data); err != nil {
		discard()
		return fmt.Errorf("bench: writing perf report %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bench: closing perf report %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bench: publishing perf report %s: %w", path, err)
	}
	fmt.Fprintf(w, "wrote %s (%d scenarios)\n", path, len(report.Results))
	return nil
}
