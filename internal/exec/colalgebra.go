package exec

import (
	"repro/internal/dict"
	"repro/internal/sparql"
)

// Columnar operators of the compositional algebra. Each applies the
// materializing engine's per-tuple accounting rules (algebra.go) to the
// same logical tuple stream, so Rows, row order, Cout, Work and Scanned
// are bit-identical to Materializing; only KernelStats (batch/gather
// counts and the columnar probe counter) describe the columnar schedule.

// --- Left outer hash join (OPTIONAL) -----------------------------------------

// colLeftJoin mirrors leftJoin column-wise: hash table over the right
// rows, left rows probed in order, unmatched left rows padded with
// dict.None. Same accounting: +1 work per build row, per probe and per
// emitted row.
func (ex *executor) colLeftJoin(l, r *colRelation) (*colRelation, error) {
	shared := sharedCols(l.vars, r.vars)
	vars, extra := outputSchema(l.vars, r.vars)
	var keyBuf []byte
	rKey := func(row int32) string {
		keyBuf = keyBuf[:0]
		for _, sc := range shared {
			id := r.cols[sc[1]][row]
			keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(keyBuf)
	}
	lKey := func(row int) string {
		keyBuf = keyBuf[:0]
		for _, sc := range shared {
			id := l.cols[sc[0]][row]
			keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(keyBuf)
	}
	table := make(map[string][]int32, r.n)
	for i := 0; i < r.n; i++ {
		if i%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		k := rKey(int32(i))
		table[k] = append(table[k], int32(i))
	}
	ex.work += float64(r.n) // build cost
	nl := len(l.vars)
	out := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
	emit := func(lr int, rr int32, matched bool) {
		for ci := 0; ci < nl; ci++ {
			out.cols[ci] = append(out.cols[ci], l.cols[ci][lr])
		}
		for k, ci := range extra {
			if matched {
				out.cols[nl+k] = append(out.cols[nl+k], r.cols[ci][rr])
			} else {
				out.cols[nl+k] = append(out.cols[nl+k], dict.None)
			}
		}
		out.n++
		ex.work++ // emit cost
		ex.kern.LeftJoinRows++
	}
	steps := 0
	for i := 0; i < l.n; i++ {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // probe cost
		ex.kern.HashProbeRows++
		matches := table[lKey(i)]
		if len(matches) == 0 {
			emit(i, 0, false)
			continue
		}
		for _, rr := range matches {
			emit(i, rr, true)
		}
	}
	return out, nil
}

// colLeftJoinOp is the columnar pipeline breaker for PhysLeftJoin.
type colLeftJoinOp struct {
	ex          *executor
	left, right colOperator
	outVars     []sparql.Var
	buf         colBuffer
}

func (op *colLeftJoinOp) vars() []sparql.Var {
	if op.outVars == nil {
		op.outVars, _ = outputSchema(op.left.vars(), op.right.vars())
	}
	return op.outVars
}

func (op *colLeftJoinOp) next() (*colBatch, error) {
	return op.buf.next(op.ex, func() (*colRelation, error) {
		l, err := op.ex.drainCol(op.left)
		if err != nil {
			return nil, err
		}
		r, err := op.ex.drainCol(op.right)
		if err != nil {
			return nil, err
		}
		out, err := op.ex.colLeftJoin(l, r)
		if err != nil {
			return nil, err
		}
		op.ex.cout += float64(out.n)
		op.outVars = out.vars
		return out, nil
	})
}

// --- Union -------------------------------------------------------------------

// colUnionOp streams each branch to exhaustion in order, gathering live
// rows into dense batches over the union schema and padding columns the
// branch does not bind with dict.None. Same accounting as the row union:
// +1 work per emitted row, output size toward Cout.
type colUnionOp struct {
	ex      *executor
	kids    []colOperator
	outVars []sparql.Var
	maps    [][]int
	cur     int
}

func (op *colUnionOp) vars() []sparql.Var { return op.outVars }

func (op *colUnionOp) next() (*colBatch, error) {
	for op.cur < len(op.kids) {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		b, err := op.kids[op.cur].next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			op.cur++
			continue
		}
		m := op.maps[op.cur]
		n := b.live()
		cols := make([][]dict.ID, len(op.outVars))
		for j, ci := range m {
			col := make([]dict.ID, n) // zero-valued = dict.None padding
			if ci >= 0 {
				if b.sel != nil {
					src := b.cols[ci]
					for i, x := range b.sel {
						col[i] = src[x]
					}
				} else {
					copy(col, b.cols[ci][:n])
				}
			}
			cols[j] = col
		}
		if b.sel != nil {
			op.ex.kern.GatherRows += n
		}
		op.ex.work += float64(n) // emit cost
		op.ex.kern.UnionRows += n
		op.ex.cout += float64(n)
		op.ex.kern.Batches++
		return &colBatch{schema: op.outVars, cols: cols, n: n}, nil
	}
	return nil, nil
}

// --- Aggregation -------------------------------------------------------------

// colAggOp drains its input into a dense columnar relation and runs the
// shared aggregation kernel (aggregateRows) over it column-wise, then
// streams the group rows as dense batches.
type colAggOp struct {
	ex      *executor
	child   colOperator
	outVars []sparql.Var
	keyCols []int
	specs   []aggSpec
	buf     colBuffer
}

func (op *colAggOp) vars() []sparql.Var { return op.outVars }

func (op *colAggOp) next() (*colBatch, error) {
	return op.buf.next(op.ex, func() (*colRelation, error) {
		rel, err := op.ex.drainCol(op.child)
		if err != nil {
			return nil, err
		}
		rows, err := aggregateRows(op.ex,
			func(r, c int) dict.ID { return rel.cols[c][r] },
			rel.n, op.keyCols, op.specs)
		if err != nil {
			return nil, err
		}
		out := &colRelation{vars: op.outVars, cols: make([][]dict.ID, len(op.outVars))}
		for _, row := range rows {
			for j, id := range row {
				out.cols[j] = append(out.cols[j], id)
			}
			out.n++
		}
		return out, nil
	})
}
