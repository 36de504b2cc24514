// Benchmarks, one per experiment of internal/bench (plus component micro-
// benchmarks in the internal packages). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

func mustExplainer(b *testing.B, alg repair.Algorithm) (*core.Explainer, *data.LaLiga) {
	b.Helper()
	ll := data.NewLaLiga()
	exp, err := core.NewExplainer(alg, ll.DCs, ll.Dirty)
	if err != nil {
		b.Fatal(err)
	}
	return exp, ll
}

// freshExplainer builds a cold explainer. Benchmarks of the public explain
// entry points build one per iteration: an explainer memoizes its
// coalition values and Target, so a reused one would replay them.
func freshExplainer(b *testing.B, alg repair.Algorithm, dcs []*dc.Constraint, dirty *table.Table) *core.Explainer {
	b.Helper()
	exp, err := core.NewExplainer(alg, dcs, dirty)
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

// BenchmarkFigure1ConstraintShapley measures the full exact constraint
// explanation of Figure 1 (E1): 2^4 memoized black-box runs + ranking.
func BenchmarkFigure1ConstraintShapley(b *testing.B) {
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshExplainer(b, alg, ll.DCs, ll.Dirty).ExplainConstraints(ctx, ll.CellOfInterest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Repair measures one full repair of the paper's table (E2).
func BenchmarkFigure2Repair(b *testing.B) {
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Repair(ctx, ll.DCs, ll.Dirty); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample24CellShapley measures the sampled cell explanation of
// Example 2.4 (E5) at a fixed budget of 64 permutations over 35 players.
func BenchmarkExample24CellShapley(b *testing.B) {
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshExplainer(b, alg, ll.DCs, ll.Dirty).ExplainCells(ctx, ll.CellOfInterest, core.CellExplainOptions{
			Samples: 64, Seed: int64(i), Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingConvergence measures the m=1024 sampling pass used in
// the convergence experiment (E6) on the 4-player constraint game.
func BenchmarkSamplingConvergence(b *testing.B) {
	exp, ll := mustExplainer(b, repair.NewAlgorithm1())
	ctx := context.Background()
	target, _, err := exp.Target(ctx, ll.CellOfInterest)
	if err != nil {
		b.Fatal(err)
	}
	game := shapley.NewCached(exp.NewConstraintGame(ll.CellOfInterest, target))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shapley.SampleAll(ctx, shapley.Deterministic{G: game}, shapley.Options{Samples: 1024, Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemoDCDebug measures demo scenario 1 (E7): explain, remove the
// top constraint, re-repair.
func BenchmarkDemoDCDebug(b *testing.B) {
	ll := data.NewLaLiga()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := core.NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
		if err != nil {
			b.Fatal(err)
		}
		report, err := sess.Explainer().ExplainConstraints(ctx, ll.CellOfInterest)
		if err != nil {
			b.Fatal(err)
		}
		top, _ := report.Top()
		if err := sess.RemoveDC(top.Name); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.Repair(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemoCellDebug measures demo scenario 2 (E8) at a reduced
// sampling budget.
func BenchmarkDemoCellDebug(b *testing.B) {
	tbl := table.MustFromStrings(
		[]string{"Team", "City", "Country", "League", "Year", "Place"},
		[][]string{
			{"Espanyol", "Barcelona", "España", "La Liga", "2019", "1"},
			{"Getafe", "Getafe", "España", "La Liga", "2019", "2"},
			{"Levante", "Valencia", "Spain", "La Liga", "2019", "3"},
			{"Eibar", "Eibar", "Spein", "La Liga", "2019", "4"},
		})
	cs, err := dc.ParseSet("C3: !(t1.League = t2.League & t1.Country != t2.Country)")
	if err != nil {
		b.Fatal(err)
	}
	alg := repair.NewAlgorithm1()
	cell := table.CellRef{Row: 3, Col: 2}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshExplainer(b, alg, cs, tbl).ExplainCells(ctx, cell, core.CellExplainOptions{Samples: 64, Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// toyCellGame builds the n-row FD toy game used by E6/E9.
func toyCellGame(b *testing.B, rows int) *core.CellGame {
	b.Helper()
	grid := make([][]string, rows)
	for i := range grid {
		grid[i] = []string{"x", "1"}
	}
	grid[1][1] = "2"
	tbl := table.MustFromStrings([]string{"A", "B"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		b.Fatal(err)
	}
	exp, err := core.NewExplainer(repair.NewRuleRepair(cs), cs, tbl)
	if err != nil {
		b.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}
	target, _, err := exp.Target(context.Background(), cell)
	if err != nil {
		b.Fatal(err)
	}
	return exp.NewCellGame(cell, target, core.ReplaceWithNull)
}

// BenchmarkExactCellShapley benchmarks exact enumeration at three player
// counts (E9's exponential curve).
func BenchmarkExactCellShapley(b *testing.B) {
	for _, rows := range []int{4, 6, 8} {
		game := toyCellGame(b, rows)
		b.Run("players="+itoa(game.NumPlayers()), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.ExactSubsets(ctx, game); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampledCellShapley benchmarks the sampler on the same games at
// a fixed budget (E9's flat curve).
func BenchmarkSampledCellShapley(b *testing.B) {
	for _, rows := range []int{4, 6, 8} {
		game := toyCellGame(b, rows)
		b.Run("players="+itoa(game.NumPlayers()), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SampleAll(ctx, shapley.Deterministic{G: game}, shapley.Options{Samples: 128, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoalitionCache contrasts exact constraint Shapley with and
// without the coalition cache (E10).
func BenchmarkCoalitionCache(b *testing.B) {
	exp, ll := mustExplainer(b, repair.NewAlgorithm1())
	ctx := context.Background()
	target, _, err := exp.Target(ctx, ll.CellOfInterest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("without", func(b *testing.B) {
		game := exp.NewConstraintGame(ll.CellOfInterest, target)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p := 0; p < game.NumPlayers(); p++ {
				if _, err := shapley.ExactOne(ctx, game, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("with", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			game := shapley.NewCached(exp.NewConstraintGame(ll.CellOfInterest, target))
			for p := 0; p < game.NumPlayers(); p++ {
				if _, err := shapley.ExactOne(ctx, game, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkScaleRows measures one cell explanation at growing table sizes
// with a fixed small budget (E11).
func BenchmarkScaleRows(b *testing.B) {
	for _, rows := range []int{6, 12, 24, 48} {
		teams := rows / 2
		clean := data.GenerateSoccer(data.SoccerConfig{Leagues: 2, TeamsPerLeague: teams, Seed: 11})
		dirty := clean.Clone()
		cell := table.CellRef{Row: teams, Col: clean.Schema().MustIndex("Country")}
		dirty.SetRef(cell, table.String("Inglaterra"))
		alg, cs := repair.NewAlgorithm1(), data.SoccerDCs()
		b.Run("rows="+itoa(rows), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := freshExplainer(b, alg, cs, dirty).ExplainCells(ctx, cell, core.CellExplainOptions{Samples: 8, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHoloSimExplain measures the constraint explanation against the
// HoloClean-style black box (E12): the explainer's cost is dominated by
// whichever repairer it queries.
func BenchmarkHoloSimExplain(b *testing.B) {
	ll := data.NewLaLiga()
	alg := repair.NewHoloSim(1)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := freshExplainer(b, alg, ll.DCs, ll.Dirty).ExplainConstraints(ctx, ll.CellOfInterest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairAlgorithms compares the four black boxes on the same
// input (E12 companion).
func BenchmarkRepairAlgorithms(b *testing.B) {
	ll := data.NewLaLiga()
	ctx := context.Background()
	for _, alg := range repair.All(1) {
		b.Run(alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Repair(ctx, ll.DCs, ll.Dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// evalHarnessGame is bench.EvalHarnessGame over the non-allocating
// passthrough black box: the A/B harness that isolates coalition
// evaluation (masking, cloning, undo) from repairer cost.
func evalHarnessGame(b *testing.B, rows int) *core.CellGame {
	b.Helper()
	game, err := bench.EvalHarnessGame(rows, repair.Passthrough{})
	if err != nil {
		b.Fatal(err)
	}
	return game
}

// BenchmarkCellGameEval is the tentpole A/B: one coalition evaluation
// through the seed clone-per-evaluation path versus the pooled scratch
// path, black-box cost excluded. The scratch path must be ≥3x faster with
// ~0 allocs/op.
func BenchmarkCellGameEval(b *testing.B) {
	ctx := context.Background()
	for _, rows := range []int{8, 32, 128} {
		game := evalHarnessGame(b, rows)
		coalition := make([]bool, game.NumPlayers())
		for i := range coalition {
			coalition[i] = i%2 == 0
		}
		b.Run("clone/rows="+itoa(rows), func(b *testing.B) {
			legacy := game.CloneEval().(shapley.Game)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := legacy.Value(ctx, coalition); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("scratch/rows="+itoa(rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := game.Value(ctx, coalition); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCellGameSampling measures a full SampleAll pass (the production
// entry point) under the three strategies: the seed clone path, the pooled
// scratch path with full masks, and the incremental prefix walk.
func BenchmarkCellGameSampling(b *testing.B) {
	ctx := context.Background()
	game := evalHarnessGame(b, 32)
	opts := shapley.Options{Samples: 8, Workers: 1}
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts.Seed = int64(i)
			if _, err := shapley.SampleAll(ctx, game.CloneEval(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts.Seed = int64(i)
			if _, err := shapley.SampleAll(ctx, shapley.Deterministic{G: game}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts.Seed = int64(i)
			if _, err := shapley.SampleAll(ctx, game, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
