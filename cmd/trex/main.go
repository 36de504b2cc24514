// Command trex repairs a table and explains repairs from the command line.
//
// Usage:
//
//	trex -laliga                                  # run the paper's example
//	trex -table dirty.csv -dcs constraints.txt    # repair a CSV
//	trex -laliga -explain "t5[Country]"           # constraint explanation
//	trex -laliga -explain "t5[Country]" -kind cells -samples 1000
//
// The -alg flag selects the black box: algorithm1 (default), holosim,
// greedy-holistic or fd-chase.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trex:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trex", flag.ContinueOnError)
	var (
		tablePath = fs.String("table", "", "dirty table CSV path")
		dcsPath   = fs.String("dcs", "", "denial constraints file path")
		useLaLiga = fs.Bool("laliga", false, "use the paper's built-in La Liga example")
		algName   = fs.String("alg", "", "repair algorithm (algorithm1|rule-repair|holosim|greedy-holistic|fd-chase); default: algorithm1 for -laliga, rule-repair otherwise")
		explain   = fs.String("explain", "", "cell to explain, e.g. t5[Country]; empty = just repair")
		kind      = fs.String("kind", "constraints", "explanation kind: constraints or cells")
		samples   = fs.Int("samples", 500, "permutation samples for cell explanations")
		seed      = fs.Int64("seed", 1, "sampling seed")
		workers   = fs.Int("workers", 0, "engine parallelism (sampling fan-out and parallel repair passes); 0 = GOMAXPROCS — never changes results")
		dropRows  = fs.String("drop", "", "comma-separated 1-based rows to delete before repairing (swap-delete: the last row takes each vacated index)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var dirty *table.Table
	var dcs []*dc.Constraint
	switch {
	case *useLaLiga:
		ll := data.NewLaLiga()
		dirty, dcs = ll.Dirty, ll.DCs
	case *tablePath != "" && *dcsPath != "":
		var err error
		dirty, err = table.ReadCSVFile(*tablePath)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(*dcsPath)
		if err != nil {
			return err
		}
		dcs, err = dc.ParseSet(string(raw))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -laliga or both -table and -dcs (see -h)")
	}

	if *dropRows != "" {
		if err := dropTableRows(dirty, *dropRows); err != nil {
			return err
		}
	}

	name := *algName
	if name == "" {
		// algorithm1's rules are bound to the paper's soccer schema;
		// arbitrary CSV inputs get rules derived from their own DCs.
		if *useLaLiga {
			name = "algorithm1"
		} else {
			name = "rule-repair"
		}
	}
	alg, err := algorithmByName(name, dcs)
	if err != nil {
		return err
	}
	// One session engine for the whole invocation: parallel repair bucket
	// passes and a coalition cache shared across the repair and explain
	// phases.
	sess, err := core.NewSessionWith(alg, dcs, dirty, core.SessionOptions{Workers: *workers})
	if err != nil {
		return err
	}
	exp := sess.Explainer()
	ctx := context.Background()

	clean, diffs, err := exp.Repair(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Dirty table ==")
	fmt.Fprint(out, dirty)
	fmt.Fprintln(out, "\n== Clean table ==")
	fmt.Fprint(out, clean)
	fmt.Fprintln(out, "\n== Repaired cells ==")
	if len(diffs) == 0 {
		fmt.Fprintln(out, "(none)")
	} else {
		fmt.Fprint(out, table.FormatDiffs(dirty, diffs))
	}

	if *explain == "" {
		return nil
	}
	cell, err := dirty.ParseRefName(*explain)
	if err != nil {
		return err
	}
	var report *core.Report
	switch *kind {
	case "constraints":
		report, err = exp.ExplainConstraints(ctx, cell)
	case "cells":
		report, err = exp.ExplainCells(ctx, cell, core.CellExplainOptions{Samples: *samples, Seed: *seed, Workers: *workers})
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, report)
	return nil
}

// dropTableRows deletes the listed 1-based rows through the table's
// swap-delete rule. Deleting in descending order keeps every listed
// number meaning a row of the original table: a swap only ever moves
// the current last row, which carries a larger original number than any
// remaining target.
func dropTableRows(t *table.Table, spec string) error {
	var rows []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -drop row %q: %w", f, err)
		}
		if n < 1 || n > t.NumRows() {
			return fmt.Errorf("-drop row %d out of range 1..%d", n, t.NumRows())
		}
		rows = append(rows, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rows)))
	prev := 0
	for _, n := range rows {
		if n == prev {
			continue
		}
		prev = n
		t.DeleteRow(n - 1)
	}
	return nil
}

func algorithmByName(name string, dcs []*dc.Constraint) (repair.Algorithm, error) {
	if name == "rule-repair" {
		return repair.NewRuleRepair(dcs), nil
	}
	for _, alg := range repair.All(1) {
		if alg.Name() == name {
			return alg, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}
