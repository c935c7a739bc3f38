package exec

import (
	"fmt"
	"sort"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements the columnar engine: the lowered physical plan
// executed over dense per-variable column batches with optional selection
// vectors. Filters refine a selection vector (with a per-ID verdict memo
// for column-vs-constant comparisons), probes and joins append
// column-wise, and sorts permute an index array instead of moving rows.
//
// Bit-identity argument: every operator applies the materializing
// engine's per-tuple accounting rules to the same logical tuple stream
// (selection vectors carry exactly the live rows), the hash join uses the
// row kernel's build-side rule and probe order, the merge join sorts a
// permutation array with the row kernel's comparator (identical
// comparator outcomes at every step imply the identical final
// arrangement), and ORDER BY uses a stable sort whose result is uniquely
// determined by keys plus input order. Rows, row order, Cout, Work and
// Scanned are therefore bit-identical to Materializing at every
// Parallelism (with EarlyStop off) — which the golden and differential
// suites assert. KernelStats (batch and kernel-row counts) describe the
// columnar schedule and are excluded from that comparison.

// streamBatch is the number of triples a scan pulls per batch, and the
// number of rows a pipeline breaker emits per window. Batches amortize
// the per-call overhead while keeping pipeline memory bounded.
const streamBatch = 1024

// colBatch is a batch of rows in columnar layout: one dense column per
// schema variable, each of length n, plus an optional selection vector of
// live row indexes (nil = all n rows live, strictly ascending otherwise).
type colBatch struct {
	schema []sparql.Var
	cols   [][]dict.ID
	n      int
	sel    []int32
}

// live returns the number of live rows.
func (b *colBatch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// sliceLive returns a view of the batch's live rows [from, to).
func (b *colBatch) sliceLive(from, to int) *colBatch {
	if b.sel != nil {
		return &colBatch{schema: b.schema, cols: b.cols, n: b.n, sel: b.sel[from:to]}
	}
	cols := make([][]dict.ID, len(b.cols))
	for j := range cols {
		cols[j] = b.cols[j][from:to]
	}
	return &colBatch{schema: b.schema, cols: cols, n: to - from}
}

// colRelation is a fully materialized columnar table (no selection).
type colRelation struct {
	vars []sparql.Var
	cols [][]dict.ID
	n    int
}

// appendBatch gathers a batch's live rows onto the relation's columns,
// compacting through the selection vector when present.
func (r *colRelation) appendBatch(ex *executor, b *colBatch) {
	if b.sel != nil {
		ex.kern.GatherRows += len(b.sel)
		for j := range r.cols {
			col := b.cols[j]
			for _, x := range b.sel {
				r.cols[j] = append(r.cols[j], col[x])
			}
		}
		r.n += len(b.sel)
		return
	}
	for j := range r.cols {
		r.cols[j] = append(r.cols[j], b.cols[j][:b.n]...)
	}
	r.n += b.n
}

// window returns the dense sub-batch [lo, hi) of the relation's rows.
func (r *colRelation) window(lo, hi int) *colBatch {
	cols := make([][]dict.ID, len(r.cols))
	for j := range cols {
		cols[j] = r.cols[j][lo:hi]
	}
	return &colBatch{schema: r.vars, cols: cols, n: hi - lo}
}

// colBuffer is the emit side of a columnar pipeline breaker: the first
// next() call materializes the operator's whole output through fill, and
// every call hands out the next dense window of at most streamBatch rows.
type colBuffer struct {
	out *colRelation // nil until filled
	pos int
}

func (cb *colBuffer) next(ex *executor, fill func() (*colRelation, error)) (*colBatch, error) {
	if cb.out == nil {
		out, err := fill()
		if err != nil {
			return nil, err
		}
		cb.out = out
	}
	if cb.pos >= cb.out.n {
		return nil, nil
	}
	end := min(cb.pos+streamBatch, cb.out.n)
	b := cb.out.window(cb.pos, end)
	cb.pos = end
	ex.kern.Batches++
	return b, nil
}

// colOperator is the pull-based columnar operator interface. next returns
// the next batch (never empty of live rows), or nil when exhausted.
type colOperator interface {
	vars() []sparql.Var
	next() (*colBatch, error)
}

// runColumnar lowers the plan (including the leapfrog option when enabled)
// and drains the columnar operator tree into a row relation.
func (ex *executor) runColumnar(c *plan.Compiled, p *plan.Plan) (*relation, error) {
	phys, err := plan.Lower(c, p, PhysOptions(ex.opts))
	if err != nil {
		return nil, err
	}
	root, err := ex.colBuild(phys.Root)
	if err != nil {
		return nil, err
	}
	out := &relation{vars: root.vars()}
	width := len(root.vars())
	for {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		b, err := root.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if b.sel != nil {
			for _, r := range b.sel {
				row := make([]dict.ID, width)
				for j := range b.cols {
					row[j] = b.cols[j][r]
				}
				out.rows = append(out.rows, row)
			}
			continue
		}
		for r := 0; r < b.n; r++ {
			row := make([]dict.ID, width)
			for j := range b.cols {
				row[j] = b.cols[j][r]
			}
			out.rows = append(out.rows, row)
		}
	}
}

// colBuild constructs the columnar operator for one physical node. A node
// marked by the lowering as the top of a parallelism-eligible pipeline
// becomes a morsel-driven parallel operator when the run's Parallelism
// allows it; everything else is built by colBuildNode.
func (ex *executor) colBuild(n *plan.PhysNode) (colOperator, error) {
	if ex.trace != nil {
		return ex.colBuildTraced(n)
	}
	if ex.parallelism() > 1 && n.ParallelSource != nil {
		return ex.newColParallelOp(n)
	}
	return ex.colBuildNode(n)
}

// colBuildNode constructs the serial columnar operator for one node.
func (ex *executor) colBuildNode(n *plan.PhysNode) (colOperator, error) {
	switch n.Op {
	case plan.PhysIndexScan:
		return newColScanOp(ex, n.Leaf), nil
	case plan.PhysIndexProbe:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		return &colProbeOp{ex: ex, child: child, plan: buildProbePlan(child.vars(), n.Leaf)}, nil
	case plan.PhysHashJoin, plan.PhysMergeJoin, plan.PhysCross:
		left, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := ex.colBuild(n.Right)
		if err != nil {
			return nil, err
		}
		return &colJoinOp{ex: ex, op: n.Op, left: left, right: right}, nil
	case plan.PhysFilter:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		cs, err := compileFilters(child.vars(), n.Filters)
		if err != nil {
			return nil, err
		}
		return newColFilterOp(ex, child, cs), nil
	case plan.PhysOrder:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		return &colOrderOp{ex: ex, child: child, keys: n.Keys}, nil
	case plan.PhysProject:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(n.Vars))
		for i, v := range n.Vars {
			ci := varIndexOf(child.vars(), v)
			if ci < 0 {
				return nil, fmt.Errorf("exec: SELECT of unbound variable ?%s", v)
			}
			cols[i] = ci
		}
		return &colProjectOp{child: child, outVars: n.Vars, cols: cols}, nil
	case plan.PhysDistinct:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		return &colDistinctOp{ex: ex, child: child, seen: map[string]bool{}}, nil
	case plan.PhysLimit:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		return &colLimitOp{child: child, limit: n.Limit, offset: n.Offset, earlyStop: ex.opts.EarlyStop}, nil
	case plan.PhysLeapfrog:
		return newLeapfrogOp(ex, n), nil
	case plan.PhysLeftJoin:
		left, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := ex.colBuild(n.Right)
		if err != nil {
			return nil, err
		}
		return &colLeftJoinOp{ex: ex, left: left, right: right}, nil
	case plan.PhysUnion:
		kids := make([]colOperator, len(n.Kids))
		kidVars := make([][]sparql.Var, len(n.Kids))
		for i, k := range n.Kids {
			kid, err := ex.colBuild(k)
			if err != nil {
				return nil, err
			}
			kids[i] = kid
			kidVars[i] = kid.vars()
		}
		return &colUnionOp{ex: ex, kids: kids, outVars: n.Vars, maps: unionColMaps(n.Vars, kidVars)}, nil
	case plan.PhysAggregate:
		child, err := ex.colBuild(n.Left)
		if err != nil {
			return nil, err
		}
		keyCols, specs, err := compileGrouping(child.vars(), n.GroupBy, n.Aggs)
		if err != nil {
			return nil, err
		}
		return &colAggOp{ex: ex, child: child, outVars: n.Vars, keyCols: keyCols, specs: specs}, nil
	default:
		return nil, fmt.Errorf("exec: unknown physical operator %v", n.Op)
	}
}

// drainCol pulls a columnar child to exhaustion into a dense relation.
func (ex *executor) drainCol(child colOperator) (*colRelation, error) {
	rel := &colRelation{vars: child.vars(), cols: make([][]dict.ID, len(child.vars()))}
	for {
		b, err := child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rel, nil
		}
		rel.appendBatch(ex, b)
	}
}

// --- IndexScan ---------------------------------------------------------------

// colScanOp streams a triple pattern out of the store index, transposing
// each triple batch into dense columns with one tight per-position loop per
// output column.
type colScanOp struct {
	ex      *executor
	outVars []sparql.Var
	cursor  *store.Scan // nil for missing leaves (empty)
	plan    scanPlan
	keep    []store.IDTriple
}

func newColScanOp(ex *executor, cp *plan.CompiledPattern) *colScanOp {
	op := &colScanOp{ex: ex, outVars: cp.Vars()}
	if cp.Missing {
		return op
	}
	op.cursor = ex.st.Scan(cp.Pat)
	op.plan = buildScanPlan(cp, op.outVars)
	return op
}

func (op *colScanOp) vars() []sparql.Var { return op.outVars }

func (op *colScanOp) next() (*colBatch, error) {
	if op.cursor == nil {
		return nil, nil
	}
	for {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		triples := op.cursor.Next(streamBatch)
		if triples == nil {
			return nil, nil
		}
		op.ex.scan += len(triples)
		op.ex.work += float64(len(triples))
		if len(op.plan.checks) > 0 {
			// Repeated-variable checks drop rows up front so emitted
			// batches stay dense.
			op.keep = op.keep[:0]
			for _, m := range triples {
				ok := true
				for _, ch := range op.plan.checks {
					if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
						ok = false
						break
					}
				}
				if ok {
					op.keep = append(op.keep, m)
				}
			}
			triples = op.keep
		}
		if len(triples) == 0 {
			continue
		}
		n := len(triples)
		cols := make([][]dict.ID, len(op.outVars))
		for _, s := range op.plan.srcs {
			col := make([]dict.ID, n)
			switch s.pos {
			case 0:
				for i := range triples {
					col[i] = triples[i].S
				}
			case 1:
				for i := range triples {
					col[i] = triples[i].P
				}
			default:
				for i := range triples {
					col[i] = triples[i].O
				}
			}
			cols[s.col] = col
		}
		op.ex.kern.Batches++
		return &colBatch{schema: op.outVars, cols: cols, n: n}, nil
	}
}

// --- IndexNestedLoopProbe ----------------------------------------------------

// colProbeOp probes the store per live input row and appends matches
// column-wise, reusing one MatchBuf scratch for the overlay merge path.
type colProbeOp struct {
	ex      *executor
	child   colOperator
	plan    probePlan
	scratch []store.IDTriple
}

func (op *colProbeOp) vars() []sparql.Var { return op.plan.outVars }

func (op *colProbeOp) next() (*colBatch, error) {
	for {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		in, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		out := op.probeBatch(in)
		if out != nil {
			op.ex.cout += float64(out.n) // join output counts toward Cout
			op.ex.kern.Batches++
			return out, nil
		}
	}
}

func (op *colProbeOp) probeBatch(in *colBatch) *colBatch {
	pp := &op.plan
	nin := len(in.schema)
	outCols := make([][]dict.ID, len(pp.outVars))
	outN := 0
	probeRow := func(r int32) {
		pat := pp.pat
		conflict := false
		for _, bd := range pp.bindings {
			v := in.cols[bd.outerCol][r]
			switch bd.pos {
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
		op.ex.work++ // index probe
		if conflict {
			return
		}
		var matches []store.IDTriple
		matches, op.scratch = op.ex.st.MatchBuf(pat, op.scratch)
		op.ex.scan += len(matches)
		op.ex.work += float64(len(matches))
		for _, m := range matches {
			ok := true
			for _, ch := range pp.checks {
				if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for j := 0; j < nin; j++ {
				outCols[j] = append(outCols[j], in.cols[j][r])
			}
			for k, pos := range pp.newCols {
				outCols[nin+k] = append(outCols[nin+k], tripleValue(m, pos))
			}
			outN++
		}
	}
	if in.sel != nil {
		for _, r := range in.sel {
			probeRow(r)
		}
	} else {
		for r := 0; r < in.n; r++ {
			probeRow(int32(r))
		}
	}
	if outN == 0 {
		return nil
	}
	return &colBatch{schema: pp.outVars, cols: outCols, n: outN}
}

// --- Filter ------------------------------------------------------------------

// colFilterOp refines the selection vector. Column-vs-constant comparisons
// (the common FILTER shape) are memoized per dictionary ID, so each
// distinct value is decoded and compared once per operator instead of once
// per row.
type colFilterOp struct {
	ex      *executor
	child   colOperator
	filters []compiledFilter
	memoCol []int              // column a memoizable filter keys on, -1 otherwise
	memo    []map[dict.ID]bool // per-filter verdict cache (nil when not memoizable)
}

func newColFilterOp(ex *executor, child colOperator, cs []compiledFilter) *colFilterOp {
	op := &colFilterOp{ex: ex, child: child, filters: cs,
		memoCol: make([]int, len(cs)), memo: make([]map[dict.ID]bool, len(cs))}
	for i, c := range cs {
		col := -1
		switch {
		case c.leftCol >= 0 && c.rightCol < 0:
			col = c.leftCol
		case c.leftCol < 0 && c.rightCol >= 0:
			col = c.rightCol
		case c.leftCol >= 0 && c.leftCol == c.rightCol:
			col = c.leftCol
		}
		op.memoCol[i] = col
		if col >= 0 {
			op.memo[i] = make(map[dict.ID]bool)
		}
	}
	return op
}

func (op *colFilterOp) vars() []sparql.Var { return op.child.vars() }

func (op *colFilterOp) pass(d *dict.Dict, b *colBatch, r int32) bool {
	for i := range op.filters {
		c := &op.filters[i]
		if col := op.memoCol[i]; col >= 0 {
			id := b.cols[col][r]
			if id == dict.None {
				// Unbound column: no comparison holds (see evalFilters).
				return false
			}
			v, ok := op.memo[i][id]
			if !ok {
				lt, rt := c.leftTerm, c.rightTerm
				if c.leftCol >= 0 {
					lt = d.Decode(id)
				}
				if c.rightCol >= 0 {
					rt = d.Decode(id)
				}
				v = evalCompare(lt, c.op, rt)
				op.memo[i][id] = v
			}
			if !v {
				return false
			}
			continue
		}
		lt, rt := c.leftTerm, c.rightTerm
		if c.leftCol >= 0 {
			id := b.cols[c.leftCol][r]
			if id == dict.None {
				return false
			}
			lt = d.Decode(id)
		}
		if c.rightCol >= 0 {
			id := b.cols[c.rightCol][r]
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

func (op *colFilterOp) next() (*colBatch, error) {
	d := op.ex.st.Dict()
	for {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		var sel []int32
		if b.sel != nil {
			sel = make([]int32, 0, len(b.sel))
			for _, r := range b.sel {
				op.ex.work++
				op.ex.kern.FilterRows++
				if op.pass(d, b, r) {
					sel = append(sel, r)
				}
			}
		} else {
			sel = make([]int32, 0, b.n)
			for r := int32(0); int(r) < b.n; r++ {
				op.ex.work++
				op.ex.kern.FilterRows++
				if op.pass(d, b, r) {
					sel = append(sel, r)
				}
			}
		}
		if len(sel) > 0 {
			op.ex.kern.Batches++
			return &colBatch{schema: b.schema, cols: b.cols, n: b.n, sel: sel}, nil
		}
	}
}

// --- Hash / sort-merge / cross joins -----------------------------------------

// colSrc names the source of one output column of a columnar join.
type colSrc struct {
	fromBuild bool
	col       int
}

// colJoinLayout computes the output schema and per-column sources of a
// hash join, preserving the row kernel's left/right orientation rules
// (schemaFor/combineRows) exactly.
func colJoinLayout(build, probe *colRelation, swapped bool) ([]sparql.Var, []colSrc) {
	if swapped {
		vars, extra := outputSchema(probe.vars, build.vars)
		src := make([]colSrc, 0, len(vars))
		for i := range probe.vars {
			src = append(src, colSrc{fromBuild: false, col: i})
		}
		for _, ci := range extra {
			src = append(src, colSrc{fromBuild: true, col: ci})
		}
		return vars, src
	}
	vars, extra := outputSchema(build.vars, probe.vars)
	src := make([]colSrc, 0, len(vars))
	for i := range build.vars {
		src = append(src, colSrc{fromBuild: true, col: i})
	}
	for _, ci := range extra {
		src = append(src, colSrc{fromBuild: false, col: ci})
	}
	return vars, src
}

// colJoinOp is the columnar pipeline breaker for composite-composite
// joins: drain both children, run the columnar kernel, stream windows.
type colJoinOp struct {
	ex          *executor
	op          plan.PhysOp
	left, right colOperator
	outVars     []sparql.Var
	buf         colBuffer
}

func (op *colJoinOp) vars() []sparql.Var {
	if op.outVars == nil {
		op.outVars, _ = outputSchema(op.left.vars(), op.right.vars())
	}
	return op.outVars
}

func (op *colJoinOp) next() (*colBatch, error) {
	return op.buf.next(op.ex, op.join)
}

func (op *colJoinOp) join() (*colRelation, error) {
	l, err := op.ex.drainCol(op.left)
	if err != nil {
		return nil, err
	}
	r, err := op.ex.drainCol(op.right)
	if err != nil {
		return nil, err
	}
	var out *colRelation
	shared := sharedCols(l.vars, r.vars)
	switch {
	case op.op == plan.PhysCross || len(shared) == 0:
		out, err = op.ex.colCross(l, r)
	case op.op == plan.PhysMergeJoin:
		out, err = op.ex.colMergeJoin(l, r, shared)
	default:
		out, err = op.ex.colHashJoin(l, r, shared)
	}
	if err != nil {
		return nil, err
	}
	op.ex.cout += float64(out.n)
	op.outVars = out.vars
	return out, nil
}

// colHashJoin is the columnar hash join: same build-side rule, same probe
// order and same per-tuple accounting as the row kernel, with the probe
// loop appending output column-wise and parallelized over the same probe
// morsels.
func (ex *executor) colHashJoin(l, r *colRelation, shared [][2]int) (*colRelation, error) {
	swapped := false
	if r.n < l.n {
		l, r = r, l
		swapped = true
		for i := range shared {
			shared[i][0], shared[i][1] = shared[i][1], shared[i][0]
		}
	}
	// l is the build side now.
	type key [4]dict.ID
	if len(shared) > 4 {
		panic("exec: more than 4 shared join variables")
	}
	mkBuild := func(row int32) key {
		var k key
		for i, sc := range shared {
			k[i] = l.cols[sc[0]][row]
		}
		return k
	}
	mkProbe := func(row int) key {
		var k key
		for i, sc := range shared {
			k[i] = r.cols[sc[1]][row]
		}
		return k
	}
	table := make(map[key][]int32, l.n)
	for i := 0; i < l.n; i++ {
		if i%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		k := mkBuild(int32(i))
		table[k] = append(table[k], int32(i))
	}
	ex.work += float64(l.n) // build cost
	vars, srcs := colJoinLayout(l, r, swapped)
	nBuildCols := 0
	for _, s := range srcs {
		if s.fromBuild {
			nBuildCols++
		}
	}
	out := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
	probeRows := func(cx *executor, lo, hi int, dst *colRelation) error {
		steps := 0
		for rr := lo; rr < hi; rr++ {
			steps++
			if steps%cancelCheckRows == 0 {
				if err := cx.cancelled(); err != nil {
					return err
				}
			}
			cx.work++ // probe cost
			cx.kern.HashProbeRows++
			for _, li := range table[mkProbe(rr)] {
				for j, s := range srcs {
					if s.fromBuild {
						dst.cols[j] = append(dst.cols[j], l.cols[s.col][li])
					} else {
						dst.cols[j] = append(dst.cols[j], r.cols[s.col][rr])
					}
				}
				dst.n++
				cx.work++ // emit cost
			}
		}
		return nil
	}
	// Build once, probe in parallel over the same morsel split as the row
	// kernel, merging outputs and counters in morsel order.
	if ex.parallelism() > 1 {
		if morsels := morselize(r.n, ex.morselSize()); len(morsels) > 1 {
			outs := make([]*colRelation, len(morsels))
			counters := make([]execCounters, len(morsels))
			workers, err := ex.runMorsels(len(morsels), func(i int) error {
				wex := ex.workerExecutor()
				dst := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
				if err := probeRows(wex, morsels[i][0], morsels[i][1], dst); err != nil {
					return err
				}
				outs[i] = dst
				counters[i] = wex.counters()
				return nil
			})
			if err != nil {
				return nil, err
			}
			ex.mergeMorsels(counters, workers)
			for _, o := range outs {
				for j := range out.cols {
					out.cols[j] = append(out.cols[j], o.cols[j]...)
				}
				out.n += o.n
			}
			return out, nil
		}
	}
	if err := probeRows(ex, 0, r.n, out); err != nil {
		return nil, err
	}
	return out, nil
}

// colMergeJoin sorts permutation arrays over both inputs with the row
// kernel's comparator (identical comparator outcomes give the identical
// arrangement) and merges equal-key runs, emitting column-wise.
func (ex *executor) colMergeJoin(l, r *colRelation, shared [][2]int) (out *colRelation, err error) {
	defer recoverSortAbort(&err)
	lCmp := func(a, b int32) int {
		for _, sc := range shared {
			x, y := l.cols[sc[0]][a], l.cols[sc[0]][b]
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	rCmp := func(a, b int32) int {
		for _, sc := range shared {
			x, y := r.cols[sc[1]][a], r.cols[sc[1]][b]
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lrCmp := func(a, b int32) int {
		for _, sc := range shared {
			x, y := l.cols[sc[0]][a], r.cols[sc[1]][b]
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lperm := make([]int32, l.n)
	for i := range lperm {
		lperm[i] = int32(i)
	}
	rperm := make([]int32, r.n)
	for i := range rperm {
		rperm[i] = int32(i)
	}
	sort.Slice(lperm, ex.lessWithCancel(func(i, j int) bool { return lCmp(lperm[i], lperm[j]) < 0 }))
	sort.Slice(rperm, ex.lessWithCancel(func(i, j int) bool { return rCmp(rperm[i], rperm[j]) < 0 }))
	ex.work += float64(l.n + r.n) // sort pass (linear proxy)
	vars, extra := outputSchema(l.vars, r.vars)
	out = &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
	nl := len(l.vars)
	steps := 0
	i, j := 0, 0
	for i < l.n && j < r.n {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		c := lrCmp(lperm[i], rperm[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i2 := i
			for i2 < l.n && lCmp(lperm[i2], lperm[i]) == 0 {
				i2++
			}
			j2 := j
			for j2 < r.n && rCmp(rperm[j2], rperm[j]) == 0 {
				j2++
			}
			for x := i; x < i2; x++ {
				for y := j; y < j2; y++ {
					steps++
					if steps%cancelCheckRows == 0 {
						if err := ex.cancelled(); err != nil {
							return nil, err
						}
					}
					lr, rr := lperm[x], rperm[y]
					for ci := 0; ci < nl; ci++ {
						out.cols[ci] = append(out.cols[ci], l.cols[ci][lr])
					}
					for k, ci := range extra {
						out.cols[nl+k] = append(out.cols[nl+k], r.cols[ci][rr])
					}
					out.n++
					ex.work++
					ex.kern.MergeRows++
				}
			}
			i, j = i2, j2
		}
	}
	return out, nil
}

// colCross is the columnar cross product.
func (ex *executor) colCross(l, r *colRelation) (*colRelation, error) {
	vars, extra := outputSchema(l.vars, r.vars)
	out := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars))}
	nl := len(l.vars)
	steps := 0
	for i := 0; i < l.n; i++ {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		for j := 0; j < r.n; j++ {
			steps++
			if steps%cancelCheckRows == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, err
				}
			}
			for ci := 0; ci < nl; ci++ {
				out.cols[ci] = append(out.cols[ci], l.cols[ci][i])
			}
			for k, ci := range extra {
				out.cols[nl+k] = append(out.cols[nl+k], r.cols[ci][j])
			}
			out.n++
			ex.work++
		}
	}
	return out, nil
}

// --- Order (blocking) --------------------------------------------------------

// colOrderOp drains its input and stable-sorts a permutation array by the
// ORDER BY keys, then gathers the columns once in sorted order.
type colOrderOp struct {
	ex    *executor
	child colOperator
	keys  []sparql.OrderKey
	buf   colBuffer
}

func (op *colOrderOp) vars() []sparql.Var { return op.child.vars() }

func (op *colOrderOp) next() (*colBatch, error) {
	return op.buf.next(op.ex, func() (*colRelation, error) {
		rel, err := op.ex.drainCol(op.child)
		if err != nil {
			return nil, err
		}
		if err := op.sortRel(rel); err != nil {
			return nil, err
		}
		op.ex.work += float64(rel.n)
		return rel, nil
	})
}

// sortRel permutes rel into ORDER BY order (stable, so the result is the
// unique keys-then-input-order arrangement the materializing engine
// produces).
func (op *colOrderOp) sortRel(rel *colRelation) (err error) {
	d := op.ex.st.Dict()
	cols := make([]int, len(op.keys))
	for i, k := range op.keys {
		ci := varIndexOf(rel.vars, k.Var)
		if ci < 0 {
			return fmt.Errorf("exec: ORDER BY unbound variable ?%s", k.Var)
		}
		cols[i] = ci
	}
	perm := make([]int32, rel.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	defer recoverSortAbort(&err)
	sort.SliceStable(perm, op.ex.lessWithCancel(func(i, j int) bool {
		a, b := perm[i], perm[j]
		for x, ci := range cols {
			va, vb := rel.cols[ci][a], rel.cols[ci][b]
			if va == vb {
				continue
			}
			c := compareOrder(d, va, vb)
			if c == 0 {
				continue
			}
			if op.keys[x].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}))
	op.ex.kern.GatherRows += rel.n
	for j := range rel.cols {
		src := rel.cols[j]
		dst := make([]dict.ID, rel.n)
		for i, p := range perm {
			dst[i] = src[p]
		}
		rel.cols[j] = dst
	}
	return nil
}

// --- Project -----------------------------------------------------------------

// colProjectOp reorders column references — a free operation in columnar
// layout (no per-row copying).
type colProjectOp struct {
	child   colOperator
	outVars []sparql.Var
	cols    []int
}

func (op *colProjectOp) vars() []sparql.Var { return op.outVars }

func (op *colProjectOp) next() (*colBatch, error) {
	b, err := op.child.next()
	if err != nil || b == nil {
		return nil, err
	}
	cols := make([][]dict.ID, len(op.cols))
	for j, ci := range op.cols {
		cols[j] = b.cols[ci]
	}
	return &colBatch{schema: op.outVars, cols: cols, n: b.n, sel: b.sel}, nil
}

// --- Distinct ----------------------------------------------------------------

// colDistinctOp keeps first occurrences, refining the selection vector.
type colDistinctOp struct {
	ex     *executor
	child  colOperator
	seen   map[string]bool
	keyBuf []byte
}

func (op *colDistinctOp) vars() []sparql.Var { return op.child.vars() }

func (op *colDistinctOp) keep(b *colBatch, r int32) bool {
	op.keyBuf = op.keyBuf[:0]
	for j := range b.cols {
		id := b.cols[j][r]
		op.keyBuf = append(op.keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	k := string(op.keyBuf)
	if op.seen[k] {
		return false
	}
	op.seen[k] = true
	return true
}

func (op *colDistinctOp) next() (*colBatch, error) {
	for {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		var sel []int32
		if b.sel != nil {
			sel = make([]int32, 0, len(b.sel))
			for _, r := range b.sel {
				if op.keep(b, r) {
					sel = append(sel, r)
				}
				op.ex.work++
			}
		} else {
			sel = make([]int32, 0, b.n)
			for r := int32(0); int(r) < b.n; r++ {
				if op.keep(b, r) {
					sel = append(sel, r)
				}
				op.ex.work++
			}
		}
		if len(sel) > 0 {
			return &colBatch{schema: b.schema, cols: b.cols, n: b.n, sel: sel}, nil
		}
	}
}

// --- Limit -------------------------------------------------------------------

// colLimitOp skips the first offset live rows, then truncates the stream
// to limit rows (limit < 0 means unlimited — an OFFSET-only modifier). By
// default the child is still drained to exhaustion after the limit is
// reached: the materializing engine computes everything before
// truncating, and measured Cout/Work/Scanned must stay bit-identical
// between the two engines. With Options.EarlyStop the drain is skipped
// and the pipeline terminates as soon as the limit is reached (the
// serving-mode default); rows are unchanged, accounting reflects only the
// work actually done.
type colLimitOp struct {
	child     colOperator
	limit     int
	offset    int
	earlyStop bool
	skipped   int
	emitted   int
	drained   bool
}

func (op *colLimitOp) vars() []sparql.Var { return op.child.vars() }

func (op *colLimitOp) next() (*colBatch, error) {
	for op.limit < 0 || op.emitted < op.limit {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			op.drained = true
			return nil, nil
		}
		n := b.live()
		if skip := op.offset - op.skipped; skip > 0 {
			if n <= skip {
				op.skipped += n
				continue
			}
			op.skipped += skip
			b = b.sliceLive(skip, n)
			n -= skip
		}
		if op.limit >= 0 {
			if rest := op.limit - op.emitted; n > rest {
				b = b.sliceLive(0, rest)
				n = rest
			}
		}
		op.emitted += n
		return b, nil
	}
	if !op.drained {
		op.drained = true
		if !op.earlyStop {
			for {
				b, err := op.child.next()
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
			}
		}
	}
	return nil, nil
}

// --- Parallel pipeline operator ----------------------------------------------

// colParallelOp executes a parallelism-eligible pipeline morsel by morsel:
// the precompiled stages are instantiated as a columnar chain per morsel,
// and the per-morsel outputs merge column-wise in morsel order. It is a
// pipeline breaker from the scheduling standpoint — output is fully
// buffered before the first batch is emitted — but rows, order and
// accounting are bit-identical to the serial chain (see the determinism
// argument in parallel.go).
type colParallelOp struct {
	ex     *executor
	source *plan.CompiledPattern
	stages []pipeStage
	nparts int
	buf    colBuffer
}

// newColParallelOp precompiles the pipeline rooted at top. When the source
// range is too small to split it falls back to the serial operator chain —
// same rows, same accounting, no coordination overhead. Compile errors
// (e.g. a filter naming an unbound variable) surface here, exactly where
// the serial build would raise them.
func (ex *executor) newColParallelOp(top *plan.PhysNode) (colOperator, error) {
	src := top.ParallelSource.Leaf
	stages, err := compilePipeline(top)
	if err != nil {
		return nil, err
	}
	parts := ex.pipelineMorsels(src, len(stages))
	if parts <= 1 {
		return ex.colBuildNode(top)
	}
	return &colParallelOp{ex: ex, source: src, stages: stages, nparts: parts}, nil
}

// buildColMorselChain instantiates the columnar operator chain for one
// morsel over the shared precompiled stages.
func buildColMorselChain(wex *executor, stages []pipeStage, cursor *store.Scan) colOperator {
	var op colOperator
	for i := range stages {
		st := &stages[i]
		switch st.node.Op {
		case plan.PhysIndexScan:
			op = &colScanOp{ex: wex, outVars: st.outVars, cursor: cursor, plan: st.scan}
		case plan.PhysIndexProbe:
			op = &colProbeOp{ex: wex, child: op, plan: st.probe}
		case plan.PhysFilter:
			op = newColFilterOp(wex, op, st.filters)
		case plan.PhysProject:
			op = &colProjectOp{child: op, outVars: st.outVars, cols: st.cols}
		}
	}
	return op
}

func (op *colParallelOp) vars() []sparql.Var { return op.stages[len(op.stages)-1].outVars }

func (op *colParallelOp) next() (*colBatch, error) {
	return op.buf.next(op.ex, op.run)
}

// run fans the source morsels across the worker pool and merges per-morsel
// outputs and counters in morsel order.
func (op *colParallelOp) run() (*colRelation, error) {
	ex := op.ex
	merged := &colRelation{vars: op.vars(), cols: make([][]dict.ID, len(op.vars()))}
	parts := ex.st.ScanPartitions(op.source.Pat, op.nparts)
	if parts == nil {
		return merged, nil
	}
	outs := make([]*colRelation, len(parts))
	counters := make([]execCounters, len(parts))
	workers, err := ex.runMorsels(len(parts), func(i int) error {
		wex := ex.workerExecutor()
		chain := buildColMorselChain(wex, op.stages, parts[i])
		rel, err := wex.drainCol(chain)
		if err != nil {
			return err
		}
		outs[i] = rel
		counters[i] = wex.counters()
		return nil
	})
	if err != nil {
		return nil, err
	}
	ex.mergeMorsels(counters, workers)
	for _, o := range outs {
		for j := range merged.cols {
			merged.cols[j] = append(merged.cols[j], o.cols[j]...)
		}
		merged.n += o.n
	}
	return merged, nil
}
