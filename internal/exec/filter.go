package exec

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// compiledFilter is one FILTER comparison resolved against a schema:
// variable sides carry a column index, constant sides a term.
type compiledFilter struct {
	leftCol, rightCol   int // -1 when the side is a constant
	leftTerm, rightTerm rdf.Term
	op                  sparql.CompareOp
}

// compileFilters resolves filters against a schema. A filter referencing a
// variable absent from the schema fails the query (SPARQL would treat it
// as an error/unbound; for benchmark workloads it is a bug).
func compileFilters(vars []sparql.Var, filters []sparql.Filter) ([]compiledFilter, error) {
	cs := make([]compiledFilter, 0, len(filters))
	for _, f := range filters {
		c := compiledFilter{leftCol: -1, rightCol: -1, op: f.Op}
		switch f.Left.Kind {
		case sparql.NodeVar:
			c.leftCol = varIndexOf(vars, f.Left.Var)
			if c.leftCol < 0 {
				return nil, fmt.Errorf("exec: filter references unbound variable ?%s", f.Left.Var)
			}
		case sparql.NodeTerm:
			c.leftTerm = f.Left.Term
		default:
			return nil, fmt.Errorf("exec: filter contains unbound parameter %%%s", f.Left.Param)
		}
		switch f.Right.Kind {
		case sparql.NodeVar:
			c.rightCol = varIndexOf(vars, f.Right.Var)
			if c.rightCol < 0 {
				return nil, fmt.Errorf("exec: filter references unbound variable ?%s", f.Right.Var)
			}
		case sparql.NodeTerm:
			c.rightTerm = f.Right.Term
		default:
			return nil, fmt.Errorf("exec: filter contains unbound parameter %%%s", f.Right.Param)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// evalFilters reports whether row passes every compiled filter. A filter
// over an unbound column (dict.None, produced by OPTIONAL padding or UNION
// branches) drops the row: no comparison is true of an unbound value.
func evalFilters(d *dict.Dict, cs []compiledFilter, row []dict.ID) bool {
	for _, c := range cs {
		lt, rt := c.leftTerm, c.rightTerm
		if c.leftCol >= 0 {
			id := row[c.leftCol]
			if id == dict.None {
				return false
			}
			lt = d.Decode(id)
		}
		if c.rightCol >= 0 {
			id := row[c.rightCol]
			if id == dict.None {
				return false
			}
			rt = d.Decode(id)
		}
		if !evalCompare(lt, c.op, rt) {
			return false
		}
	}
	return true
}

// applyFilters evaluates all FILTER comparisons over the relation.
func (ex *executor) applyFilters(rel *relation, filters []sparql.Filter) (*relation, error) {
	if len(filters) == 0 {
		return rel, nil
	}
	cs, err := compileFilters(rel.vars, filters)
	if err != nil {
		return nil, err
	}
	d := ex.st.Dict()
	out := rel.rows[:0:0]
	for _, row := range rel.rows {
		ex.work++
		if evalFilters(d, cs, row) {
			out = append(out, row)
		}
	}
	return &relation{vars: rel.vars, rows: out}, nil
}

// evalCompare implements the comparison semantics: equality is term
// equality (with numeric coercion when both sides are numeric literals);
// ordering is numeric when both sides are numeric literals and lexical
// otherwise (which orders ISO dates correctly).
func evalCompare(l rdf.Term, op sparql.CompareOp, r rdf.Term) bool {
	lf, lok := numericValue(l)
	rf, rok := numericValue(r)
	if lok && rok {
		switch op {
		case sparql.OpEq:
			return lf == rf
		case sparql.OpNe:
			return lf != rf
		case sparql.OpLt:
			return lf < rf
		case sparql.OpLe:
			return lf <= rf
		case sparql.OpGt:
			return lf > rf
		case sparql.OpGe:
			return lf >= rf
		}
	}
	switch op {
	case sparql.OpEq:
		return l == r
	case sparql.OpNe:
		return l != r
	}
	c := compareLexical(l, r)
	switch op {
	case sparql.OpLt:
		return c < 0
	case sparql.OpLe:
		return c <= 0
	case sparql.OpGt:
		return c > 0
	case sparql.OpGe:
		return c >= 0
	}
	return false
}

func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

func compareLexical(l, r rdf.Term) int {
	if l.Value < r.Value {
		return -1
	}
	if l.Value > r.Value {
		return 1
	}
	return 0
}

// finish applies projection, DISTINCT, ORDER BY and LIMIT.
func (ex *executor) finish(rel *relation, q *sparql.Query) (*relation, error) {
	// ORDER BY runs on the pre-projection schema (sort keys need not be
	// selected).
	if len(q.OrderBy) > 0 {
		if err := sortRowsByKeys(ex, rel, q.OrderBy); err != nil {
			return nil, err
		}
		ex.work += float64(len(rel.rows))
	}
	// Projection.
	if len(q.Select) > 0 {
		cols := make([]int, len(q.Select))
		for i, v := range q.Select {
			ci := varIndexOf(rel.vars, v)
			if ci < 0 {
				return nil, fmt.Errorf("exec: SELECT of unbound variable ?%s", v)
			}
			cols[i] = ci
		}
		projected := make([][]dict.ID, len(rel.rows))
		for i, row := range rel.rows {
			pr := make([]dict.ID, len(cols))
			for j, ci := range cols {
				pr[j] = row[ci]
			}
			projected[i] = pr
		}
		rel = &relation{vars: append([]sparql.Var(nil), q.Select...), rows: projected}
	}
	if q.Distinct {
		seen := make(map[string]bool, len(rel.rows))
		out := rel.rows[:0:0]
		var keyBuf []byte
		for _, row := range rel.rows {
			keyBuf = appendRowKey(keyBuf[:0], row)
			k := string(keyBuf)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
			ex.work++
		}
		rel = &relation{vars: rel.vars, rows: out}
	}
	// OFFSET skips rows before LIMIT counts them (SPARQL slice semantics).
	if q.Offset > 0 {
		if q.Offset >= len(rel.rows) {
			rel = &relation{vars: rel.vars}
		} else {
			rel = &relation{vars: rel.vars, rows: rel.rows[q.Offset:]}
		}
	}
	if limit, has := q.LimitCount(); has && len(rel.rows) > limit {
		rel = &relation{vars: rel.vars, rows: rel.rows[:limit]}
	}
	return rel, nil
}

// sortRowsByKeys stably sorts rel.rows by the ORDER BY keys for the
// materializing finish step (the columnar Order operator sorts a
// permutation with the same comparator). The sort
// buffers the whole input, so the run's context is polled from inside the
// comparator: a dropped client aborts mid-sort instead of waiting out a
// huge ORDER BY.
func sortRowsByKeys(ex *executor, rel *relation, keys []sparql.OrderKey) (err error) {
	d := ex.st.Dict()
	cols := make([]int, len(keys))
	for i, k := range keys {
		ci := varIndexOf(rel.vars, k.Var)
		if ci < 0 {
			return fmt.Errorf("exec: ORDER BY unbound variable ?%s", k.Var)
		}
		cols[i] = ci
	}
	defer recoverSortAbort(&err)
	sort.SliceStable(rel.rows, ex.lessWithCancel(func(i, j int) bool {
		for x, ci := range cols {
			a, b := rel.rows[i][ci], rel.rows[j][ci]
			if a == b {
				continue
			}
			c := compareOrder(d, a, b)
			if c == 0 {
				continue
			}
			if keys[x].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}))
	return nil
}

// appendRowKey encodes a row as a fixed-width byte key for DISTINCT
// deduplication (4 bytes per 32-bit dictionary ID). Both engines must use
// this one encoding so they dedup identically.
func appendRowKey(buf []byte, row []dict.ID) []byte {
	for _, id := range row {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}

// compareOrder orders two dictionary IDs by their terms: numeric literals
// numerically, everything else lexically by value. The unbound sentinel
// (dict.None) sorts before every bound value.
func compareOrder(d *dict.Dict, a, b dict.ID) int {
	if a == dict.None || b == dict.None {
		switch {
		case a == b:
			return 0
		case a == dict.None:
			return -1
		default:
			return 1
		}
	}
	ta, tb := d.Decode(a), d.Decode(b)
	fa, oka := numericValue(ta)
	fb, okb := numericValue(tb)
	if oka && okb {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return ta.Compare(tb)
}
