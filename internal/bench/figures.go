package bench

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// paperExplainer builds the canonical Explainer over the La Liga example.
func paperExplainer() (*core.Explainer, *data.LaLiga, error) {
	ll := data.NewLaLiga()
	exp, err := core.NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	return exp, ll, err
}

// checkMark renders a pass/fail column.
func checkMark(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}

// runFig1 reproduces Figure 1: the exact Shapley value of each DC.
func runFig1(w io.Writer) error {
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	report, err := exp.ExplainConstraints(context.Background(), ll.CellOfInterest)
	if err != nil {
		return err
	}
	paper := map[string]float64{"C1": 1.0 / 6, "C2": 1.0 / 6, "C3": 2.0 / 3, "C4": 0}
	fmt.Fprintf(w, "%-4s %-12s %-12s %s\n", "DC", "paper", "measured", "match")
	for _, id := range []string{"C1", "C2", "C3", "C4"} {
		entry, _ := report.Find(id)
		fmt.Fprintf(w, "%-4s %-12.6f %-12.6f %s\n", id, paper[id], entry.Shapley,
			checkMark(math.Abs(entry.Shapley-paper[id]) < 1e-12))
	}
	top, _ := report.Top()
	fmt.Fprintf(w, "ranking: top DC = %s (paper: C3) %s\n", top.Name, checkMark(top.Name == "C3"))
	return nil
}

// runFig2 reproduces Figure 2: the repair itself.
func runFig2(w io.Writer) error {
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	clean, diffs, err := exp.Repair(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "dirty table (Figure 2a):")
	fmt.Fprint(w, ll.Dirty)
	fmt.Fprintln(w, "\nrepaired cells (blue cells of Figure 2b):")
	fmt.Fprint(w, table.FormatDiffs(ll.Dirty, diffs))
	fmt.Fprintf(w, "\noutput equals reconstructed Figure 2b: %s\n", checkMark(clean.Equal(ll.Clean)))
	fmt.Fprintf(w, "t5[City]: Capital -> %s (paper: Madrid)\n", clean.GetByName(4, "City"))
	fmt.Fprintf(w, "t5[Country]: España -> %s (paper: Spain)\n", clean.GetByName(4, "Country"))
	ok, err := dc.Consistent(ll.DCs, clean)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clean table satisfies C1..C4: %s\n", checkMark(ok))
	return nil
}

// runEx22 reproduces Example 2.2: the binary view of the black box.
func runEx22(w io.Writer) error {
	_, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	alg := repair.NewAlgorithm1()
	cell, err := ll.Dirty.ParseRefName("t5[City]")
	if err != nil {
		return err
	}
	target := table.String("Madrid")
	ctx := context.Background()

	with, err := repair.CellRepaired(ctx, alg, dc.Without(ll.DCs, "C4"), ll.Dirty, cell, target, nil, nil)
	if err != nil {
		return err
	}
	without, err := repair.CellRepaired(ctx, alg, dc.Without(dc.Without(ll.DCs, "C4"), "C1"), ll.Dirty, cell, target, nil, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Alg|t5[City]({C1,C2,C3}, T) = %.0f (paper: 1) %s\n", with, checkMark(with == 1))
	fmt.Fprintf(w, "Alg|t5[City]({C2,C3}, T)    = %.0f (paper: 0) %s\n", without, checkMark(without == 0))
	return nil
}

// runEx23 reproduces Example 2.3: the repairing subsets and the resulting
// Shapley arithmetic.
func runEx23(w io.Writer) error {
	_, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	alg := repair.NewAlgorithm1()
	ctx := context.Background()
	ids := []string{"C1", "C2", "C3", "C4"}

	fmt.Fprintf(w, "%-22s %s\n", "subset", "repairs t5[Country]?")
	repairing := 0
	for mask := 0; mask < 16; mask++ {
		var subset []*dc.Constraint
		var names []string
		for b, id := range ids {
			if mask&(1<<uint(b)) != 0 {
				subset = append(subset, dc.ByID(ll.DCs, id))
				names = append(names, id)
			}
		}
		got, err := repair.CellRepaired(ctx, alg, subset, ll.Dirty, ll.CellOfInterest, table.String("Spain"), nil, nil)
		if err != nil {
			return err
		}
		wantRepair := mask&4 != 0 || mask&3 == 3 // C3 present, or C1 and C2 both present
		if got == 1 && mask&8 == 0 {             // count C4-free subsets: the "5 subsets" of Example 2.3
			repairing++
		}
		label := "{" + joinNames(names) + "}"
		fmt.Fprintf(w, "%-22s %.0f (paper: %d) %s\n", label, got, b2i(wantRepair), checkMark((got == 1) == wantRepair))
	}
	fmt.Fprintf(w, "repairing subsets of {C1,C2,C3} (paper: 5): %d %s\n", repairing, checkMark(repairing == 5))
	fmt.Fprintln(w, "Shapley arithmetic from these subsets: Shap(C1)=Shap(C2)=2/12, Shap(C3)=2/3, Shap(C4)=0 — see fig1")
	return nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runEx24 reproduces Example 2.4: the cell ranking.
func runEx24(w io.Writer) error {
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	report, err := exp.ExplainCells(context.Background(), ll.CellOfInterest, core.CellExplainOptions{
		Samples: 4000,
		Seed:    42,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "top 10 cells by estimated Shapley value (null-mask policy):")
	for i, e := range report.Entries {
		if i >= 10 {
			break
		}
		fmt.Fprintf(w, "%3d. %-14s %+.4f ± %.4f\n", i+1, e.Name, e.Shapley, e.CI95)
	}
	top, _ := report.Top()
	league, _ := report.Find("t5[League]")
	place, _ := report.Find("t1[Place]")
	city, _ := report.Find("t6[City]")
	fmt.Fprintf(w, "paper: t5[League] has the highest value   -> measured top = %s %s\n", top.Name, checkMark(top.Name == "t5[League]"))
	fmt.Fprintf(w, "paper: t1[Place] has no influence         -> measured %.4f %s\n", place.Shapley, checkMark(place.Shapley == 0))
	fmt.Fprintf(w, "paper: t5[League] more influential than t6[City] -> %.4f vs %.4f %s\n",
		league.Shapley, city.Shapley, checkMark(league.Shapley > city.Shapley))
	return nil
}
