package exec

import (
	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// This file holds the leaf plumbing both engines share: column lookup,
// triple-position extraction, and the scan and index-probe plans that turn
// matched triples into rows or columns. One definition keeps the engines'
// repeated-variable and constant-conflict semantics from diverging.

// varIndexOf returns the column index of v in vars, or -1.
func varIndexOf(vars []sparql.Var, v sparql.Var) int {
	for i, x := range vars {
		if x == v {
			return i
		}
	}
	return -1
}

// tripleValue extracts position pos (0=S,1=P,2=O) of t.
func tripleValue(t store.IDTriple, pos int) dict.ID {
	switch pos {
	case 0:
		return t.S
	case 1:
		return t.P
	default:
		return t.O
	}
}

// scanPlan is the column-extraction plan of a leaf scan: one source
// position per output column, plus equality checks between positions
// holding the same (repeated) variable. Both engines extract their scan
// rows through this one plan so their semantics cannot diverge.
type scanPlan struct {
	srcs   []scanSrc
	checks [][2]int
}

type scanSrc struct {
	col int
	pos int
}

// buildScanPlan derives the extraction plan for cp's output schema.
func buildScanPlan(cp *plan.CompiledPattern, outVars []sparql.Var) scanPlan {
	var sp scanPlan
	posVar := [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO}
	for ci, v := range outVars {
		first := -1
		for pos, pv := range posVar {
			if pv != v {
				continue
			}
			if first == -1 {
				first = pos
				sp.srcs = append(sp.srcs, scanSrc{col: ci, pos: pos})
			} else {
				sp.checks = append(sp.checks, [2]int{first, pos})
			}
		}
	}
	return sp
}

// row extracts one output row from a matched triple, or nil when a
// repeated-variable check fails.
func (sp *scanPlan) row(m store.IDTriple, width int) []dict.ID {
	for _, ch := range sp.checks {
		if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
			return nil
		}
	}
	row := make([]dict.ID, width)
	for _, s := range sp.srcs {
		row[s.col] = tripleValue(m, s.pos)
	}
	return row
}

// probePlan is the per-outer-row plan of an index nested-loop join:
// which outer columns bind which pattern positions, which leaf positions
// become new output columns, and which leaf-internal repeated variables
// must agree. Shared by both engines.
type probePlan struct {
	pat       store.Pattern
	outVars   []sparql.Var
	bindings  []probeBinding
	newCols   []int    // leaf positions appended as new output columns
	checks    [][2]int // leaf-internal repeated unshared variables
	anyShared bool
}

type probeBinding struct {
	pos      int
	outerCol int
}

// buildProbePlan derives the probe plan of cp driven by the outer schema.
func buildProbePlan(outer []sparql.Var, cp *plan.CompiledPattern) probePlan {
	pp := probePlan{pat: cp.Pat}
	posVar := [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO}
	pp.outVars = append(pp.outVars, outer...)
	firstPos := map[sparql.Var]int{}
	for pos, v := range posVar {
		if v == "" {
			continue
		}
		if ci := varIndexOf(outer, v); ci >= 0 {
			pp.bindings = append(pp.bindings, probeBinding{pos: pos, outerCol: ci})
			pp.anyShared = true
			continue
		}
		if fp, seen := firstPos[v]; seen {
			pp.checks = append(pp.checks, [2]int{fp, pos})
			continue
		}
		firstPos[v] = pos
		pp.outVars = append(pp.outVars, v)
		pp.newCols = append(pp.newCols, pos)
	}
	return pp
}

// bind substitutes the outer row's shared columns into the pattern,
// reporting a conflict when a bound constant disagrees with the row.
func (pp *probePlan) bind(row []dict.ID) (store.Pattern, bool) {
	pat := pp.pat
	conflict := false
	for _, b := range pp.bindings {
		v := row[b.outerCol]
		switch b.pos {
		case 0:
			if pat.S != dict.None && pat.S != v {
				conflict = true
			}
			pat.S = v
		case 1:
			if pat.P != dict.None && pat.P != v {
				conflict = true
			}
			pat.P = v
		default:
			if pat.O != dict.None && pat.O != v {
				conflict = true
			}
			pat.O = v
		}
	}
	return pat, conflict
}

// row combines the outer row with a matched triple, or returns nil when a
// leaf-internal repeated-variable check fails.
func (pp *probePlan) row(outer []dict.ID, m store.IDTriple) []dict.ID {
	for _, ch := range pp.checks {
		if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
			return nil
		}
	}
	nr := make([]dict.ID, 0, len(pp.outVars))
	nr = append(nr, outer...)
	for _, pos := range pp.newCols {
		nr = append(nr, tripleValue(m, pos))
	}
	return nr
}
