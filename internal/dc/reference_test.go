package dc

import "repro/internal/table"

// Interpreted references for the kernel-backed probes. Each is built on
// SatisfiedPair alone — no ScanIndex, no buckets, no compiled kernel — so
// the tests below hold every production entry point to the naive
// three-valued-logic evaluator.

// violationPairsRef is the interpreted reference for ViolationPairsForRow:
// 1 when a single-tuple constraint's body holds for row i, else the number
// of ordered pairs (i, j) and (j, i), j ≠ i, over the whole table whose
// body holds.
func violationPairsRef(c *Constraint, t *table.Table, i int) (int, error) {
	if c.SingleTuple() {
		sat, err := c.SatisfiedPair(t, i, i)
		if err != nil || !sat {
			return 0, err
		}
		return 1, nil
	}
	n := 0
	for j := 0; j < t.NumRows(); j++ {
		if j == i {
			continue
		}
		for _, p := range [2][2]int{{i, j}, {j, i}} {
			sat, err := c.SatisfiedPair(t, p[0], p[1])
			if err != nil {
				return 0, err
			}
			if sat {
				n++
			}
		}
	}
	return n, nil
}

// violatesRowRef is the interpreted reference for ViolatesRowCached: row i
// participates in at least one violation.
func violatesRowRef(c *Constraint, t *table.Table, i int) (bool, error) {
	n, err := violationPairsRef(c, t, i)
	return n > 0, err
}

// allViolationsRef concatenates the naive Violations of every constraint,
// in constraint order.
func allViolationsRef(cs []*Constraint, t *table.Table) ([]Violation, error) {
	var out []Violation
	for _, c := range cs {
		vs, err := c.Violations(t)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}
