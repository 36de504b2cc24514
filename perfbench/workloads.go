package main

import (
	"context"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// runSoccer48 is explain-soccer48, the cold explain a user waits on: a
// 48-team soccer table with one wrong Country, the rule-derived black
// box, and a session whose engine has one worker per CPU. Each op
// explains the wrong cell with 32 permutation samples and a fresh seed,
// so almost no coalition repeats and the black box dominates.
func runSoccer48(ctx context.Context, cfg config) (*result, error) {
	// The table is fixed, as in the explain-cells/soccer48 rows of the
	// BENCH files; the run's seed drives the explains. A fixture drawn
	// from the seed moved the set-up time by 2x from seed to seed.
	soccer := data.SoccerConfig{Leagues: 4, TeamsPerLeague: 12, Seed: 17}
	cell := table.CellRef{Row: 5, Col: data.GenerateSoccer(soccer).Schema().MustIndex("Country")}
	cs := data.SoccerDCs()
	w := &inproc{
		seed:     cfg.seed,
		workers:  runtime.NumCPU(),
		cell:     cell,
		restrict: true,
		open: func(workers int, rec *recorder) (*core.Session, error) {
			t := data.GenerateSoccer(soccer)
			t.Set(cell.Row, cell.Col, table.String("Wrongland"))
			alg, err := traced(repair.NewRuleRepair(cs), rec)
			if err != nil {
				return nil, err
			}
			return core.NewSessionWith(alg, cs, t, core.SessionOptions{Workers: workers})
		},
		refresh: func(ctx context.Context, s *core.Session, i, workers int, rec *recorder) (*outputs, error) {
			exp := s.Explainer()
			if _, err := call(rec, kTarget, func() (table.Value, error) {
				v, _, err := exp.Target(ctx, cell)
				return v, err
			}); err != nil {
				return nil, err
			}
			r, err := call(rec, kExplainCells, func() (*core.Report, error) {
				return exp.ExplainCells(ctx, cell, core.CellExplainOptions{
					Samples: 32, Seed: mix(cfg.seed, i), Workers: workers, RestrictToRelevant: true,
				})
			})
			if err != nil {
				return nil, err
			}
			return &outputs{reports: []*core.Report{r}, cells: []int{0}}, nil
		},
	}
	return runInproc(ctx, cfg, w)
}

// debugCities are the values the debugging loop gives t1[City]; with any
// of them t5[Country] stays repaired to Spain.
var debugCities = []string{"Barcelona", "Valencia", "Bilbao", "Madrid"}

// debugRow is the row the loop inserts and deletes again.
var debugRow = []string{"Valencia", "Valencia", "Spain", "La Liga", "2019", "5"}

// runLaLiga is debug-laliga, the paper's interactive loop on its own
// table with Algorithm 1 and a serial engine. Each op is one seeded edit
// and one screen refresh. Mostly the edit sets t1[City]; one op in eight
// inserts a row and deletes it again, one in sixteen removes a constraint
// and adds it back. The refresh shows every report of the explanation
// screen; the top-3 race gets one permutation per round, so the
// coalition cache and the plumbing around the black box stay in view.
func runLaLiga(ctx context.Context, cfg config) (*result, error) {
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	w := &inproc{
		seed:    cfg.seed,
		workers: 1,
		cell:    cell,
		open: func(workers int, rec *recorder) (*core.Session, error) {
			ll := data.NewLaLiga()
			alg, err := traced(repair.NewAlgorithm1(), rec)
			if err != nil {
				return nil, err
			}
			return core.NewSessionWith(alg, ll.DCs, ll.Dirty, core.SessionOptions{Workers: workers})
		},
		edit: func(s *core.Session, i int, rec *recorder) error {
			rng := rand.New(rand.NewSource(mix(cfg.seed, i)))
			switch k := rng.Intn(16); {
			case k < 13:
				v := table.String(debugCities[rng.Intn(len(debugCities))])
				return do(rec, kEdit, func() error { return s.SetCell(table.CellRef{Row: 0, Col: 1}, v) })
			case k < 15:
				vals := make([]table.Value, len(debugRow))
				for j, f := range debugRow {
					vals[j] = table.ParseValue(f)
				}
				if err := do(rec, kEdit, func() error { return s.InsertRow(vals) }); err != nil {
					return err
				}
				return do(rec, kEdit, func() error { return s.DeleteRow(s.Dirty().NumRows() - 1) })
			default:
				c := ll.DCs[rng.Intn(len(ll.DCs))]
				if err := do(rec, kDCEdit, func() error { return s.RemoveDC(c.ID) }); err != nil {
					return err
				}
				return do(rec, kDCEdit, func() error { return s.AddDC(c.String()) })
			}
		},
		refresh: func(ctx context.Context, s *core.Session, i, workers int, rec *recorder) (*outputs, error) {
			exp := s.Explainer()
			opts := core.CellExplainOptions{Samples: 64, Seed: mix(cfg.seed, i), Workers: workers}
			out := &outputs{}
			add := func(r *core.Report, err error) error {
				if err == nil {
					out.reports = append(out.reports, r)
				}
				return err
			}
			if _, err := call(rec, kTarget, func() (table.Value, error) {
				v, _, err := exp.Target(ctx, cell)
				return v, err
			}); err != nil {
				return nil, err
			}
			if err := add(call(rec, kExplainConstraints, func() (*core.Report, error) { return exp.ExplainConstraints(ctx, cell) })); err != nil {
				return nil, err
			}
			// Two visits of the cell screen with the same seed; the second
			// is answered from the coalition cache.
			for _, k := range []kind{kExplainCells, kExplainCellsAgain} {
				out.cells = append(out.cells, len(out.reports))
				if err := add(call(rec, k, func() (*core.Report, error) { return exp.ExplainCells(ctx, cell, opts) })); err != nil {
					return nil, err
				}
			}
			if err := add(call(rec, kExplainTopK, func() (*core.Report, error) {
				top := opts
				top.Samples = 8
				r, _, err := exp.ExplainCellsTopK(ctx, cell, 3, top)
				return r, err
			})); err != nil {
				return nil, err
			}
			if err := add(call(rec, kExplainGroups, func() (*core.Report, error) {
				return exp.ExplainCellGroupsSampled(ctx, cell, exp.RowGroups(cell), opts)
			})); err != nil {
				return nil, err
			}
			vs, err := call(rec, kViolations, s.Violations)
			if err != nil {
				return nil, err
			}
			out.violations = violationStrings(vs)
			return out, nil
		},
	}
	return runInproc(ctx, cfg, w)
}

func violationStrings(vs []dc.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}
