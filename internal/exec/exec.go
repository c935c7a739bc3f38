// Package exec evaluates optimized query plans against a store, through
// two engines that produce bit-identical results:
//
//   - The columnar engine (the default, Options.Mode's zero value) lowers
//     the logical plan to a physical operator tree (plan.Lower) and pulls
//     dense per-variable column batches through it: index scans stream
//     straight out of the hexastore, index-nested-loop probes and filters
//     are fully pipelined (and morsel-parallel under Options.Parallelism),
//     and only the inherently blocking operators (hash/merge/cross and
//     left outer joins, ORDER BY, aggregation) buffer their inputs.
//   - The materializing engine (Options.Mode = Materializing) evaluates
//     the logical join tree — and the OPTIONAL/UNION/aggregate algebra
//     around it — bottom-up with every intermediate result fully
//     materialized, as the original executor did. It is the frozen paper
//     baseline and the independent oracle the columnar engine is tested
//     against.
//
// Both engines record the measured Cout of the execution exactly (the
// sizes of all join outputs) and accumulate a deterministic "work" counter
// (tuples scanned, hashed, probed, emitted, sorted) that serves as a
// noise-free runtime proxy alongside wall-clock time. The paper's
// Cout-vs-runtime correlation (Section III) is reproduced against both.
package exec

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// JoinAlgorithm selects the physical join operator.
type JoinAlgorithm uint8

const (
	// HashJoin builds a hash table on the smaller input (default).
	HashJoin JoinAlgorithm = iota
	// SortMergeJoin sorts both inputs on the join key and merges.
	SortMergeJoin
)

// ExecMode selects the execution engine.
type ExecMode uint8

const (
	// Columnar executes the lowered physical plan with batch-pull
	// operators over dense per-variable column batches with optional
	// selection vectors (default). It additionally unlocks
	// Options.Leapfrog.
	Columnar ExecMode = iota
	// Materializing computes every join's complete output before moving
	// on — the original engine, kept as the golden reference. Rows, row
	// order, Cout, Work and Scanned are bit-identical to Columnar at every
	// Parallelism with EarlyStop off.
	Materializing
)

// Options configures execution.
type Options struct {
	Join JoinAlgorithm
	Mode ExecMode
	// PushFilters evaluates single-variable filters at the lowest operator
	// whose schema covers them (columnar engine only). It prunes
	// intermediate results early, so measured Cout shrinks and is no
	// longer comparable to the unpushed plans; final rows are unchanged.
	// Off by default to keep the paper's cost accounting exact.
	PushFilters bool
	// EarlyStop lets LIMIT terminate the columnar pipeline as soon as the
	// limit is reached instead of draining its input to exhaustion. Final
	// rows are unchanged, but the Cout/Work/Scanned accounting reflects
	// only the tuples actually touched, so it is no longer comparable to
	// the materializing engine. Off by default (all paper experiments keep
	// the draining behavior); the query service turns it on.
	EarlyStop bool
	// Parallelism is the per-query worker budget for morsel-driven
	// intra-query parallelism: parallelism-eligible pipelines (see
	// plan.PhysNode.ParallelSource) fan their source morsels across up to
	// this many workers, and hash joins probe their shared read-only build
	// table from up to this many workers. Results — rows, row order and the
	// full Cout/Work/Scanned accounting — are bit-identical to Parallelism
	// <= 1 (per-morsel outputs and counters are merged in morsel order, and
	// every counter increment is per-tuple, independent of batching). 0 or
	// 1 (the default) executes serially, preserving paper-experiment
	// semantics exactly.
	//
	// One caveat: a parallel pipeline runs its morsels to completion before
	// anything downstream observes output, so under EarlyStop a LIMIT can
	// no longer cut a pipeline short mid-stream — rows are unchanged but
	// the accounting may exceed the serial EarlyStop run's. With EarlyStop
	// off (the default), accounting is bit-identical at every worker count.
	Parallelism int
	// MorselSize is the number of source triples per morsel (0 = 4096).
	// Smaller morsels improve load balancing and let small inputs exercise
	// the parallel path; the choice never affects results or accounting.
	MorselSize int
	// Leapfrog enables the worst-case-optimal leapfrog triejoin for
	// eligible star/cyclic BGPs (see plan.PhysOptions.Leapfrog). Ignored by
	// the materializing engine, which keeps its binary join trees. A
	// leapfrog run emits rows in global trie order and counts only
	// the multiway join's final output toward Cout, so its results equal
	// the binary plans' as multisets (asserted by the differential suite)
	// but are excluded from the bit-identical golden matrix.
	Leapfrog bool
	// Pool, when set, is the shared CPU budget the executor draws extra
	// workers from: each worker beyond the query's own goroutine requires
	// one TryAcquire'd token, released when the pipeline finishes. A query
	// always makes progress on its own goroutine even when the pool is
	// exhausted — Parallelism is then a ceiling, not a demand. The query
	// service points this at its admission pool so intra-query workers and
	// concurrent queries respect one budget.
	Pool *TokenPool
	// Trace, when non-nil, receives the run's execution trace: every
	// physical operator is wrapped in a span recording wall time, rows and
	// batches emitted, the exact Cout/Work/Scanned deltas of its subtree,
	// and — for morsel-driven parallel operators — a per-morsel/per-worker
	// breakdown. The finalized span tree is handed to the collector once
	// the run completes. Tracing never changes results or accounting; the
	// root span's inclusive totals equal this Result's Cout/Work/Scanned
	// bit-for-bit. When nil (the default) the engines build the exact
	// untraced operator tree — no wrappers, no per-tuple checks, no
	// allocations on the hot path.
	Trace obs.Collector
}

// PhysOptions returns the lowering options the columnar engine uses for
// opts — the single place Options maps onto plan.PhysOptions, shared with
// EXPLAIN-style tooling so the printed physical plan is the executed one.
func PhysOptions(opts Options) plan.PhysOptions {
	physJoin := plan.PhysJoinHash
	if opts.Join == SortMergeJoin {
		physJoin = plan.PhysJoinMerge
	}
	return plan.PhysOptions{
		Join:        physJoin,
		PushFilters: opts.PushFilters,
		// The leapfrog multiway join is a columnar operator; the
		// materializing engine keeps its binary join trees.
		Leapfrog: opts.Leapfrog && opts.Mode == Columnar,
	}
}

// Result is the outcome of one query execution.
type Result struct {
	Vars     []sparql.Var  // output column schema
	Rows     [][]dict.ID   // result tuples (projected, de-duplicated, ordered, limited)
	Cout     float64       // measured sum of all join-output sizes (the paper's cost function)
	Work     float64       // deterministic work units: scanned + built + probed + emitted tuples
	Duration time.Duration // wall-clock execution time
	Scanned  int           // tuples read from indexes
	// Morsels is the number of source morsels executed by parallel
	// operators (0 when the query ran serially). Excluded from the
	// bit-identical golden comparison: it describes the schedule, not the
	// result.
	Morsels int
	// Workers is the largest worker count any parallel operator of this
	// query ran with (0 when the query ran serially). Like Morsels it
	// describes the schedule; the service aggregates it into per-query
	// worker-utilization stats.
	Workers int
	// Kernels counts columnar/leapfrog kernel activity. Like Morsels and
	// Workers it describes how the engine ran, not what it computed, and is
	// excluded from the bit-identical golden comparison (the materializing
	// engine reports zeros for the columnar and leapfrog counters;
	// LeapfrogSeeks additionally depends on partitioning).
	Kernels KernelStats
}

// KernelStats counts the work done by the columnar and leapfrog kernels,
// plus the compositional-algebra operator counters (LeftJoinRows,
// UnionRows, AggGroups), which are engine-independent logical counts —
// the materializing and columnar engines report identical values for
// them.
type KernelStats struct {
	Batches       int // column batches emitted by columnar operators
	FilterRows    int // rows evaluated by the columnar filter kernel
	HashProbeRows int // rows probed by the columnar hash-join kernel
	MergeRows     int // rows emitted by the columnar merge-join kernel
	GatherRows    int // rows compacted/gathered through selection vectors
	LeapfrogSeeks int // trie-cursor seeks issued by leapfrog searches
	LeapfrogRows  int // rows emitted by the leapfrog multiway join
	LeftJoinRows  int // rows emitted by left outer joins (OPTIONAL)
	UnionRows     int // rows emitted by union operators
	AggGroups     int // groups emitted by aggregation operators
}

// add accumulates other into s (used by the morsel-order counter merge).
func (s *KernelStats) add(o KernelStats) {
	s.Batches += o.Batches
	s.FilterRows += o.FilterRows
	s.HashProbeRows += o.HashProbeRows
	s.MergeRows += o.MergeRows
	s.GatherRows += o.GatherRows
	s.LeapfrogSeeks += o.LeapfrogSeeks
	s.LeapfrogRows += o.LeapfrogRows
	s.LeftJoinRows += o.LeftJoinRows
	s.UnionRows += o.UnionRows
	s.AggGroups += o.AggGroups
}

// relation is an intermediate table: a schema plus rows.
type relation struct {
	vars []sparql.Var
	rows [][]dict.ID
}

// executor carries per-run state.
type executor struct {
	st      store.Source
	ctx     context.Context
	opts    Options
	cout    float64
	work    float64
	scan    int
	morsels int // morsels executed by parallel operators
	workers int // max workers any parallel operator ran with
	kern    KernelStats
	// probeScratch backs the overlay merge path of index-nested-loop
	// probes (MatchBuf) so per-row probing stays allocation-free.
	probeScratch []store.IDTriple
	// trace is the run's tracing context; nil unless Options.Trace is set.
	// Worker executors never carry one — their counters reach the tracing
	// run through the morsel-order merge.
	trace *traceState
}

// cancelled returns the context's error once the run's context is done.
// Operators check it per batch, and the blocking join/sort kernels check
// it every cancelCheckRows tuples, so a dropped client aborts both a
// pipelined pull and a pipeline breaker mid-build within bounded work.
func (ex *executor) cancelled() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// cancelCheckRows is how many tuples a blocking kernel (hash build/probe,
// merge, cross product, sort) processes between context polls.
const cancelCheckRows = 4096

// parallelism returns the effective worker ceiling for this run.
func (ex *executor) parallelism() int {
	if ex.opts.Parallelism < 1 {
		return 1
	}
	return ex.opts.Parallelism
}

// Run executes the plan p for compiled query c against st with the engine
// selected by opts.Mode. The two engines return bit-identical Results
// (including the Cout/Work/Scanned accounting) for the same options.
func Run(c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	return RunCtx(context.Background(), c, p, st, opts)
}

// RunCtx is Run under a context: cancelling ctx aborts the execution at the
// next operator batch boundary and returns the context's error. The
// accounting of a completed (non-cancelled) run is identical to Run's.
func RunCtx(ctx context.Context, c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	start := time.Now()
	ex := &executor{st: st, ctx: ctx, opts: opts}
	if opts.Trace != nil {
		ex.trace = &traceState{}
		if opts.Mode == Materializing {
			// The materializing engine evaluates the logical tree directly
			// (no operator tree to wrap): one root span carries the run.
			root := &obs.Span{Op: "Materialize", Detail: "Materialize (logical-tree evaluation)"}
			ex.trace.root = root
			ex.trace.cur = root
		}
	}
	var rel *relation
	var err error
	if opts.Mode == Materializing {
		rel, err = ex.runMaterializing(c, p)
	} else {
		rel, err = ex.runColumnar(c, p)
	}
	if err != nil {
		return nil, err
	}
	if ex.trace != nil {
		ex.finishTrace(len(rel.rows), time.Since(start))
	}
	return &Result{
		Vars:     rel.vars,
		Rows:     rel.rows,
		Cout:     ex.cout,
		Work:     ex.work,
		Duration: time.Since(start),
		Scanned:  ex.scan,
		Morsels:  ex.morsels,
		Workers:  ex.workers,
		Kernels:  ex.kern,
	}, nil
}

// runMaterializing is the original engine: evaluate the logical join tree
// bottom-up with full intermediate materialization, then apply filters and
// the ORDER BY / projection / DISTINCT / LIMIT epilogue. Algebra queries
// evaluate the algebra tree instead (group filters applied where their
// group ends) and aggregate before the epilogue.
func (ex *executor) runMaterializing(c *plan.Compiled, p *plan.Plan) (*relation, error) {
	q := c.Query
	var rel *relation
	var err error
	if p.Alg != nil {
		rel, err = ex.evalAlg(p.Alg)
		if err == nil {
			rel, err = ex.aggregate(rel, q)
		}
	} else {
		rel, err = ex.eval(p.Root)
		if err == nil {
			rel, err = ex.applyFilters(rel, q.Filters)
		}
	}
	if err != nil {
		return nil, err
	}
	return ex.finish(rel, q)
}

func (ex *executor) eval(n *plan.Node) (*relation, error) {
	if n == nil {
		return nil, fmt.Errorf("exec: nil plan node")
	}
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if n.IsLeaf() {
		return ex.scanLeaf(n.Leaf), nil
	}
	// Index-nested-loop preference: when a child is a bare triple pattern,
	// probe the store's indexes per outer row instead of materializing the
	// full pattern — this is how RDF engines execute selective joins, and
	// it makes execution work proportional to the data actually touched
	// (without it, constant-size full scans would mask the paper's
	// parameter-dependent runtime effects).
	out, err := ex.evalJoin(n)
	if err != nil {
		return nil, err
	}
	// Cout counts the size of every join output, including the root's.
	ex.cout += float64(len(out.rows))
	return out, nil
}

func (ex *executor) evalJoin(n *plan.Node) (*relation, error) {
	left, right := n.Left, n.Right
	switch {
	case right.IsLeaf() && !left.IsLeaf():
		outer, err := ex.eval(left)
		if err != nil {
			return nil, err
		}
		return ex.joinWithLeaf(outer, right.Leaf)
	case left.IsLeaf() && !right.IsLeaf():
		outer, err := ex.eval(right)
		if err != nil {
			return nil, err
		}
		return ex.joinWithLeaf(outer, left.Leaf)
	case left.IsLeaf() && right.IsLeaf():
		// Materialize the smaller (by estimated cardinality), probe the
		// other through the index.
		if left.Card <= right.Card {
			return ex.joinWithLeaf(ex.scanLeaf(left.Leaf), right.Leaf)
		}
		return ex.joinWithLeaf(ex.scanLeaf(right.Leaf), left.Leaf)
	default:
		l, err := ex.eval(left)
		if err != nil {
			return nil, err
		}
		r, err := ex.eval(right)
		if err != nil {
			return nil, err
		}
		return ex.join(l, r)
	}
}

// joinWithLeaf joins an already-materialized outer relation with a base
// triple pattern via index nested loops: per outer row, the shared
// variables are bound into the pattern and the store is probed. When no
// variable is shared (a cross product) it falls back to materializing the
// leaf. The probe plumbing (buildProbePlan) is shared with the columnar
// probe operator.
func (ex *executor) joinWithLeaf(outer *relation, leaf *plan.CompiledPattern) (*relation, error) {
	pp := buildProbePlan(outer.vars, leaf)
	if !pp.anyShared || leaf.Missing {
		// Cross product (or empty leaf): materialize and defer to join.
		return ex.join(outer, ex.scanLeaf(leaf))
	}
	out := &relation{vars: pp.outVars}
	for i, row := range outer.rows {
		if i%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		pat, conflict := pp.bind(row)
		ex.work++ // index probe
		if conflict {
			continue
		}
		var matches []store.IDTriple
		matches, ex.probeScratch = ex.st.MatchBuf(pat, ex.probeScratch)
		ex.scan += len(matches)
		ex.work += float64(len(matches))
		for _, m := range matches {
			if nr := pp.row(row, m); nr != nil {
				out.rows = append(out.rows, nr)
			}
		}
	}
	return out, nil
}

// scanLeaf materializes a triple-pattern scan into a relation over the
// pattern's variables. Repeated variables (e.g. ?x ?p ?x) are enforced by
// the extraction plan shared with the columnar scan operator.
func (ex *executor) scanLeaf(cp *plan.CompiledPattern) *relation {
	rel := &relation{vars: cp.Vars()}
	if cp.Missing {
		return rel
	}
	matches, _ := ex.st.Match(cp.Pat)
	ex.scan += len(matches)
	ex.work += float64(len(matches))
	sp := buildScanPlan(cp, rel.vars)
	rows := make([][]dict.ID, 0, len(matches))
	width := len(rel.vars)
	for _, m := range matches {
		if row := sp.row(m, width); row != nil {
			rows = append(rows, row)
		}
	}
	rel.rows = rows
	return rel
}

// join dispatches to the configured join algorithm; inputs with no shared
// variables produce a cross product (nested loop).
func (ex *executor) join(l, r *relation) (*relation, error) {
	shared := sharedCols(l.vars, r.vars)
	if len(shared) == 0 {
		return ex.crossProduct(l, r)
	}
	switch ex.opts.Join {
	case SortMergeJoin:
		return ex.mergeJoin(l, r, shared)
	default:
		return ex.hashJoin(l, r, shared)
	}
}

// sharedCols returns pairs (leftCol, rightCol) of columns bound to the same
// variable.
func sharedCols(lvars, rvars []sparql.Var) [][2]int {
	var out [][2]int
	for li, v := range lvars {
		if ri := varIndexOf(rvars, v); ri >= 0 {
			out = append(out, [2]int{li, ri})
		}
	}
	return out
}

// outputSchema builds the joined schema: all left vars, then right vars not
// already present, with a column-copy map for right rows.
func outputSchema(lvars, rvars []sparql.Var) (vars []sparql.Var, rightCopy []int) {
	vars = append(vars, lvars...)
	for ri, v := range rvars {
		if varIndexOf(lvars, v) < 0 {
			vars = append(vars, v)
			rightCopy = append(rightCopy, ri)
		}
	}
	return vars, rightCopy
}

func (ex *executor) hashJoin(l, r *relation, shared [][2]int) (*relation, error) {
	// Build on the smaller side.
	swapped := false
	if len(r.rows) < len(l.rows) {
		l, r = r, l
		swapped = true
		for i := range shared {
			shared[i][0], shared[i][1] = shared[i][1], shared[i][0]
		}
	}
	// l is the build side now.
	type key [4]dict.ID // up to 4 join columns; more is rejected below
	if len(shared) > 4 {
		panic("exec: more than 4 shared join variables")
	}
	mk := func(row []dict.ID, side int) key {
		var k key
		for i, sc := range shared {
			k[i] = row[sc[side]]
		}
		return k
	}
	table := make(map[key][][]dict.ID, len(l.rows))
	for i, row := range l.rows {
		if i%cancelCheckRows == 0 {
			// The build side can be huge: poll the context mid-build so a
			// dropped client aborts the pipeline breaker, not just the
			// batch pulls that fed it.
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		k := mk(row, 0)
		table[k] = append(table[k], row)
	}
	ex.work += float64(len(l.rows)) // build cost
	vars, rightCopy := schemaFor(l, r, swapped)
	out := &relation{vars: vars}
	// probeRows probes the shared read-only table with a slice of probe
	// rows, charging probe/emit work to cx. One code path serves the serial
	// probe and every parallel morsel, so their per-tuple accounting and
	// output order cannot diverge.
	probeRows := func(cx *executor, rows [][]dict.ID) ([][]dict.ID, error) {
		var dst [][]dict.ID
		steps := 0
		for _, rrow := range rows {
			steps++
			if steps%cancelCheckRows == 0 {
				if err := cx.cancelled(); err != nil {
					return nil, err
				}
			}
			cx.work++ // probe cost
			for _, lrow := range table[mk(rrow, 1)] {
				dst = append(dst, combineRows(lrow, rrow, rightCopy, swapped, len(vars)))
				cx.work++ // emit cost
			}
		}
		return dst, nil
	}
	// Build once, probe in parallel: the table is read-only from here on,
	// so probe morsels only share immutable state. Merging per-morsel
	// outputs and counters in morsel order reproduces the serial probe
	// loop bit-for-bit.
	if ex.parallelism() > 1 {
		if morsels := morselize(len(r.rows), ex.morselSize()); len(morsels) > 1 {
			outs := make([][][]dict.ID, len(morsels))
			counters := make([]execCounters, len(morsels))
			workers, err := ex.runMorsels(len(morsels), func(i int) error {
				wex := ex.workerExecutor()
				rows, err := probeRows(wex, r.rows[morsels[i][0]:morsels[i][1]])
				if err != nil {
					return err
				}
				outs[i] = rows
				counters[i] = wex.counters()
				return nil
			})
			if err != nil {
				return nil, err
			}
			ex.mergeMorsels(counters, workers)
			out.rows = mergeRowBuffers(outs)
			return out, nil
		}
	}
	rows, err := probeRows(ex, r.rows)
	if err != nil {
		return nil, err
	}
	out.rows = rows
	return out, nil
}

// schemaFor computes the output schema preserving the original left/right
// orientation even if the build side was swapped.
func schemaFor(build, probe *relation, swapped bool) ([]sparql.Var, []int) {
	if swapped {
		// original left = probe, original right = build
		vars, copyIdx := outputSchema(probe.vars, build.vars)
		return vars, copyIdx
	}
	vars, copyIdx := outputSchema(build.vars, probe.vars)
	return vars, copyIdx
}

// combineRows merges a build row and probe row into the output layout.
func combineRows(buildRow, probeRow []dict.ID, extraCopy []int, swapped bool, width int) []dict.ID {
	out := make([]dict.ID, 0, width)
	if swapped {
		out = append(out, probeRow...)
		for _, ci := range extraCopy {
			out = append(out, buildRow[ci])
		}
		return out
	}
	out = append(out, buildRow...)
	for _, ci := range extraCopy {
		out = append(out, probeRow[ci])
	}
	return out
}

func (ex *executor) mergeJoin(l, r *relation, shared [][2]int) (out *relation, err error) {
	defer recoverSortAbort(&err)
	lk := func(row []dict.ID) []dict.ID {
		k := make([]dict.ID, len(shared))
		for i, sc := range shared {
			k[i] = row[sc[0]]
		}
		return k
	}
	rk := func(row []dict.ID) []dict.ID {
		k := make([]dict.ID, len(shared))
		for i, sc := range shared {
			k[i] = row[sc[1]]
		}
		return k
	}
	cmp := func(a, b []dict.ID) int {
		for i := range a {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lrows := append([][]dict.ID(nil), l.rows...)
	rrows := append([][]dict.ID(nil), r.rows...)
	// The sorts buffer the entire inputs: poll the context from inside the
	// comparators so a cancelled run unwinds mid-sort.
	sort.Slice(lrows, ex.lessWithCancel(func(i, j int) bool { return cmp(lk(lrows[i]), lk(lrows[j])) < 0 }))
	sort.Slice(rrows, ex.lessWithCancel(func(i, j int) bool { return cmp(rk(rrows[i]), rk(rrows[j])) < 0 }))
	ex.work += float64(len(lrows) + len(rrows)) // sort pass (linear proxy)
	vars, rightCopy := outputSchema(l.vars, r.vars)
	out = &relation{vars: vars}
	steps := 0
	i, j := 0, 0
	for i < len(lrows) && j < len(rrows) {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		c := cmp(lk(lrows[i]), rk(rrows[j]))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the run of equal keys on both sides.
			i2 := i
			for i2 < len(lrows) && cmp(lk(lrows[i2]), lk(lrows[i])) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(rrows) && cmp(rk(rrows[j2]), rk(rrows[j])) == 0 {
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
					out.rows = append(out.rows, combineRows(lrows[x], rrows[y], rightCopy, false, len(vars)))
					ex.work++
				}
			}
			i, j = i2, j2
		}
	}
	return out, nil
}

func (ex *executor) crossProduct(l, r *relation) (*relation, error) {
	vars, rightCopy := outputSchema(l.vars, r.vars)
	out := &relation{vars: vars}
	steps := 0
	for _, lrow := range l.rows {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		for _, rrow := range r.rows {
			steps++
			if steps%cancelCheckRows == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, err
				}
			}
			out.rows = append(out.rows, combineRows(lrow, rrow, rightCopy, false, len(vars)))
			ex.work++
		}
	}
	return out, nil
}
