package exec

import (
	"fmt"
	"strconv"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file implements the compositional algebra of the materializing
// engine plus the aggregation machinery shared with the columnar engine:
// evaluation of the logical algebra tree (BGP leaves, inner joins, left
// outer joins for OPTIONAL, ordered unions with unbound padding for
// UNION, group-scoped filters) and hash aggregation (GROUP BY /
// aggregates / HAVING). The columnar operators live in colalgebra.go and
// apply the exact same per-tuple accounting rules, so Rows, row order,
// Cout, Work and Scanned stay bit-identical between the two engines.
//
// Unbound-variable semantics (fixed for this subset, deterministic):
// an OPTIONAL left row without a match pads the right-only columns with
// dict.None; a UNION branch pads the columns it does not bind. None
// compares equal to None and unequal to every bound ID in joins, drops
// the row in FILTER comparisons, sorts before every bound value in
// ORDER BY, and is ignored by every aggregate except COUNT(*).

// evalAlg evaluates one algebra node bottom-up, mirroring plan.Lower's
// composition exactly: a BGP leaf is its optimized join tree, an inner
// join runs the configured join kernel (a cross product when no variable
// is shared), a left join runs the left outer hash join, and a union
// concatenates its branches. Every join, left join and union output
// counts toward Cout, and the node's group filters apply to its output.
func (ex *executor) evalAlg(a *plan.AlgNode) (*relation, error) {
	var rel *relation
	var err error
	switch a.Kind {
	case plan.AlgBGP:
		rel, err = ex.eval(a.Root)
	case plan.AlgJoin, plan.AlgLeftJoin:
		var l, r *relation
		if l, err = ex.evalAlg(a.Left); err != nil {
			return nil, err
		}
		if r, err = ex.evalAlg(a.Right); err != nil {
			return nil, err
		}
		if a.Kind == plan.AlgJoin {
			rel, err = ex.join(l, r)
		} else {
			rel, err = ex.leftJoin(l, r)
		}
		if err == nil {
			ex.cout += float64(len(rel.rows))
		}
	case plan.AlgUnion:
		rel, err = ex.union(a.Branches)
	default:
		err = fmt.Errorf("exec: unknown algebra node %v", a.Kind)
	}
	if err != nil {
		return nil, err
	}
	return ex.applyFilters(rel, a.Filters)
}

// --- Left outer hash join (OPTIONAL) -----------------------------------------

// leftJoin is the row kernel of the left outer join: a hash table is
// built on the right side (the OPTIONAL group), then the left rows are
// probed in order. A matching left row emits one output per match in
// build insertion order; a non-matching one emits once with the
// right-only columns unbound. With no shared variable the key is empty,
// so every left row matches every right row (degenerate cross), which
// keeps the operator total. Accounting mirrors hashJoin: +1 work per
// build row, +1 per probe, +1 per emitted row; the caller charges the
// output size to Cout.
func (ex *executor) leftJoin(l, r *relation) (*relation, error) {
	shared := sharedCols(l.vars, r.vars)
	vars, rightCopy := outputSchema(l.vars, r.vars)
	var keyBuf []byte
	key := func(row []dict.ID, side int) string {
		keyBuf = keyBuf[:0]
		for _, sc := range shared {
			id := row[sc[side]]
			keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(keyBuf)
	}
	table := make(map[string][][]dict.ID, len(r.rows))
	for i, row := range r.rows {
		if i%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		k := key(row, 1)
		table[k] = append(table[k], row)
	}
	ex.work += float64(len(r.rows)) // build cost
	pad := make([]dict.ID, len(rightCopy))
	out := &relation{vars: vars}
	steps := 0
	for _, lrow := range l.rows {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // probe cost
		matches := table[key(lrow, 0)]
		if len(matches) == 0 {
			nr := make([]dict.ID, 0, len(vars))
			nr = append(nr, lrow...)
			nr = append(nr, pad...)
			out.rows = append(out.rows, nr)
			ex.work++ // emit cost
			ex.kern.LeftJoinRows++
			continue
		}
		for _, rrow := range matches {
			out.rows = append(out.rows, combineRows(lrow, rrow, rightCopy, false, len(vars)))
			ex.work++ // emit cost
			ex.kern.LeftJoinRows++
		}
	}
	return out, nil
}

// --- Union -------------------------------------------------------------------

// unionColMaps resolves, per branch, each union output column to the
// branch's column index (-1 = the branch does not bind it: pad None).
func unionColMaps(outVars []sparql.Var, kidVars [][]sparql.Var) [][]int {
	maps := make([][]int, len(kidVars))
	for i, kv := range kidVars {
		m := make([]int, len(outVars))
		for j, v := range outVars {
			m[j] = varIndexOf(kv, v)
		}
		maps[i] = m
	}
	return maps
}

// union evaluates the branches in order and concatenates their rows over
// the union schema (every branch's variables in first-occurrence order),
// padding columns a branch does not bind with dict.None. Accounting: +1
// work per emitted row, and the full output size counts toward Cout (the
// union materializes a new intermediate result exactly like a join
// output).
func (ex *executor) union(branches []*plan.AlgNode) (*relation, error) {
	kids := make([]*relation, len(branches))
	kidVars := make([][]sparql.Var, len(branches))
	out := &relation{}
	for i, br := range branches {
		kid, err := ex.evalAlg(br)
		if err != nil {
			return nil, err
		}
		kids[i], kidVars[i] = kid, kid.vars
		out.vars, _ = outputSchema(out.vars, kid.vars)
	}
	for i, m := range unionColMaps(out.vars, kidVars) {
		for _, row := range kids[i].rows {
			nr := make([]dict.ID, len(out.vars))
			for j, ci := range m {
				if ci >= 0 {
					nr[j] = row[ci]
				}
			}
			out.rows = append(out.rows, nr)
		}
	}
	ex.work += float64(len(out.rows)) // emit cost
	ex.kern.UnionRows += len(out.rows)
	ex.cout += float64(len(out.rows))
	return out, nil
}

// --- Aggregation -------------------------------------------------------------

// aggSpec is one aggregate resolved against the input schema.
type aggSpec struct {
	fn       sparql.AggFunc
	distinct bool
	col      int // source column; -1 for COUNT(*)
}

// compileGrouping resolves the GROUP BY keys and the aggregates' argument
// variables against the input schema.
func compileGrouping(vars, groupBy []sparql.Var, aggs []sparql.Aggregate) ([]int, []aggSpec, error) {
	keyCols := make([]int, len(groupBy))
	for i, v := range groupBy {
		ci := varIndexOf(vars, v)
		if ci < 0 {
			return nil, nil, fmt.Errorf("exec: GROUP BY unbound variable ?%s", v)
		}
		keyCols[i] = ci
	}
	specs := make([]aggSpec, len(aggs))
	for i, a := range aggs {
		s := aggSpec{fn: a.Func, distinct: a.Distinct, col: -1}
		if a.Var != "" {
			ci := varIndexOf(vars, a.Var)
			if ci < 0 {
				return nil, nil, fmt.Errorf("exec: aggregate over unbound variable ?%s", a.Var)
			}
			s.col = ci
		}
		specs[i] = s
	}
	return keyCols, specs, nil
}

// aggregate is the materializing engine's aggregation step: when q groups
// or aggregates, rel collapses to one row per group over the schema
// (GROUP BY keys, then aggregate aliases), and HAVING filters the groups.
// Other queries pass through unchanged.
func (ex *executor) aggregate(rel *relation, q *sparql.Query) (*relation, error) {
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		return rel, nil
	}
	keyCols, specs, err := compileGrouping(rel.vars, q.GroupBy, q.Aggs)
	if err != nil {
		return nil, err
	}
	out := &relation{vars: append([]sparql.Var(nil), q.GroupBy...)}
	for _, a := range q.Aggs {
		if varIndexOf(out.vars, a.As) >= 0 {
			return nil, fmt.Errorf("exec: duplicate aggregate output ?%s", a.As)
		}
		out.vars = append(out.vars, a.As)
	}
	out.rows, err = aggregateRows(ex, func(r, c int) dict.ID { return rel.rows[r][c] },
		len(rel.rows), keyCols, specs)
	if err != nil {
		return nil, err
	}
	return ex.applyFilters(out, q.Having)
}

// aggState is the running state of one aggregate over one group.
type aggState struct {
	count        int64            // COUNT
	distinct     map[dict.ID]bool // COUNT(DISTINCT ?v)
	sum          float64          // SUM / AVG accumulator
	sumN         int64            // numeric values accumulated
	sumInt       bool             // all accumulated values were xsd:integer
	minID, maxID dict.ID          // winning input IDs (None = unset)
}

// aggregateRows is the one aggregation kernel both engines run: it groups
// the n input rows (accessed through get, so rows and columns both
// qualify) by the key columns, keeping groups in first-occurrence order,
// and folds each aggregate. Accounting: +1 work per input row, +1 per
// emitted group, and the group count toward Cout. Unbound inputs
// (dict.None) are ignored by every aggregate; COUNT(*) counts rows
// regardless. SUM and AVG fold numeric-coercible values only (input
// order, so float accumulation is deterministic); MIN/MAX keep the
// winning input ID under compareOrder (first wins ties). Results are
// interned into the store dictionary — Encode is idempotent, so both
// engines obtain identical IDs on the same store.
func aggregateRows(ex *executor, get func(row, col int) dict.ID, n int, keyCols []int, specs []aggSpec) ([][]dict.ID, error) {
	d := ex.st.Dict()
	global := len(keyCols) == 0
	type group struct {
		key []dict.ID
		sts []aggState
	}
	newGroup := func(key []dict.ID) *group {
		g := &group{key: key, sts: make([]aggState, len(specs))}
		for i := range g.sts {
			g.sts[i].sumInt = true
			if specs[i].distinct {
				g.sts[i].distinct = map[dict.ID]bool{}
			}
		}
		return g
	}
	var groups []*group
	index := map[string]*group{}
	if global {
		// Global aggregation always emits exactly one row, even over an
		// empty input (COUNT = 0, SUM = 0, MIN/MAX/AVG unbound).
		groups = append(groups, newGroup(nil))
	}
	var keyBuf []byte
	for r := 0; r < n; r++ {
		if r%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // aggregate input row
		var g *group
		if global {
			g = groups[0]
		} else {
			keyBuf = keyBuf[:0]
			for _, kc := range keyCols {
				id := get(r, kc)
				keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			k := string(keyBuf)
			var ok bool
			if g, ok = index[k]; !ok {
				key := make([]dict.ID, len(keyCols))
				for i, kc := range keyCols {
					key[i] = get(r, kc)
				}
				g = newGroup(key)
				groups = append(groups, g)
				index[k] = g
			}
		}
		for i := range specs {
			sp := &specs[i]
			st := &g.sts[i]
			if sp.col < 0 {
				st.count++ // COUNT(*)
				continue
			}
			id := get(r, sp.col)
			if id == dict.None {
				continue
			}
			switch sp.fn {
			case sparql.AggCount:
				if sp.distinct {
					st.distinct[id] = true
				} else {
					st.count++
				}
			case sparql.AggSum, sparql.AggAvg:
				t := d.Decode(id)
				if f, ok := numericValue(t); ok {
					st.sum += f
					st.sumN++
					if t.Datatype != rdf.XSDInteger {
						st.sumInt = false
					}
				}
			case sparql.AggMin:
				if st.minID == dict.None || compareOrder(d, id, st.minID) < 0 {
					st.minID = id
				}
			case sparql.AggMax:
				if st.maxID == dict.None || compareOrder(d, id, st.maxID) > 0 {
					st.maxID = id
				}
			}
		}
	}
	out := make([][]dict.ID, 0, len(groups))
	for _, g := range groups {
		ex.work++ // emitted group
		row := make([]dict.ID, 0, len(keyCols)+len(specs))
		row = append(row, g.key...)
		for i := range specs {
			row = append(row, finishAgg(d, &specs[i], &g.sts[i]))
		}
		out = append(out, row)
	}
	ex.cout += float64(len(groups))
	ex.kern.AggGroups += len(groups)
	return out, nil
}

// finishAgg materializes one aggregate's result as a dictionary ID.
func finishAgg(d *dict.Dict, sp *aggSpec, st *aggState) dict.ID {
	switch sp.fn {
	case sparql.AggCount:
		c := st.count
		if sp.distinct {
			c = int64(len(st.distinct))
		}
		return d.Encode(rdf.NewInteger(c))
	case sparql.AggSum:
		if st.sumN == 0 {
			return d.Encode(rdf.NewInteger(0))
		}
		if st.sumInt {
			return d.Encode(rdf.NewInteger(int64(st.sum)))
		}
		return d.Encode(rdf.NewTypedLiteral(strconv.FormatFloat(st.sum, 'g', -1, 64), rdf.XSDDecimal))
	case sparql.AggAvg:
		if st.sumN == 0 {
			return dict.None
		}
		return d.Encode(rdf.NewTypedLiteral(strconv.FormatFloat(st.sum/float64(st.sumN), 'g', -1, 64), rdf.XSDDecimal))
	case sparql.AggMin:
		return st.minID
	case sparql.AggMax:
		return st.maxID
	}
	return dict.None
}
