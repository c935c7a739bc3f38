package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The golden-equality suite: over every BSBM and SNB query template, with
// curated parameter bindings drawn from the paper's own pipeline (domain
// extraction → per-binding analysis → clustering), the columnar engine
// must agree with the materializing engine bit-for-bit — same Vars, same
// Rows in the same order, same measured Cout, Work and Scanned — for both
// interior-join algorithms and at every parallelism.

type goldenTemplate struct {
	name string
	tmpl *sparql.Query
	snb  bool // template runs against the SNB store (else BSBM)
}

func goldenTemplates() []goldenTemplate {
	return []goldenTemplate{
		{"bsbm-q1", bsbm.Q1(), false},
		{"bsbm-q2", bsbm.Q2(), false},
		{"bsbm-q3", bsbm.Q3(), false},
		{"bsbm-q4", bsbm.Q4(), false},
		{"snb-q1", snb.Q1(), true},
		{"snb-q2", snb.Q2(), true},
		{"snb-q3", snb.Q3(), true},
	}
}

// curatedBindings draws at least min bindings via the curation pipeline:
// every parameter class contributes members, topped up with uniform draws.
func curatedBindings(t *testing.T, tmpl *sparql.Query, st *store.Store, min int) []sparql.Binding {
	t.Helper()
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tmpl, st, dom, core.AnalyzeOptions{MaxBindings: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster(a, core.ClusterOptions{})
	var out []sparql.Binding
	for _, cq := range core.Curate("q", cl, 11) {
		out = append(out, cq.Sampler.Sample(2)...)
	}
	if len(out) < min {
		out = append(out, core.NewUniformSampler(dom, 13).Sample(min-len(out))...)
	}
	return out
}

func equalResults(a, b *exec.Result) error {
	if len(a.Vars) != len(b.Vars) {
		return fmt.Errorf("vars %v vs %v", a.Vars, b.Vars)
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return fmt.Errorf("vars %v vs %v", a.Vars, b.Vars)
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %d vs %d", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if a.Cout != b.Cout {
		return fmt.Errorf("Cout %v vs %v", a.Cout, b.Cout)
	}
	if a.Work != b.Work {
		return fmt.Errorf("Work %v vs %v", a.Work, b.Work)
	}
	if a.Scanned != b.Scanned {
		return fmt.Errorf("Scanned %d vs %d", a.Scanned, b.Scanned)
	}
	return nil
}

// TestGoldenStreamingEqualsMaterializing: the pipelined columnar engine
// is bit-identical to the materializing reference — same plan, Vars, Rows,
// row order, Cout, Work and Scanned — for both join algorithms, serially
// and at Parallelism 2 and 8, over every template and curated binding.
func TestGoldenStreamingEqualsMaterializing(t *testing.T) {
	env := sharedEnv(t)
	for _, g := range goldenTemplates() {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		bindings := curatedBindings(t, g.tmpl, st, 3)
		if len(bindings) < 3 {
			t.Fatalf("%s: only %d curated bindings", g.name, len(bindings))
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			for _, alg := range []exec.JoinAlgorithm{exec.HashJoin, exec.SortMergeJoin} {
				mres, mplan, err := exec.Query(bound, st, exec.Options{Join: alg, Mode: exec.Materializing})
				if err != nil {
					t.Fatalf("%s binding %d materializing: %v", g.name, bi, err)
				}
				for _, par := range []int{1, 2, 8} {
					cres, cplan, err := exec.Query(bound, st, exec.Options{Join: alg, Parallelism: par, MorselSize: 128})
					if err != nil {
						t.Fatalf("%s binding %d columnar parallelism %d: %v", g.name, bi, par, err)
					}
					if cplan.Signature != mplan.Signature {
						t.Fatalf("%s binding %d: plans diverge: %s vs %s", g.name, bi, cplan.Signature, mplan.Signature)
					}
					if err := equalResults(cres, mres); err != nil {
						t.Errorf("%s binding %d (alg %d) columnar parallelism %d: %v", g.name, bi, alg, par, err)
					}
					if cres.Scanned > 0 && cres.Kernels.Batches == 0 {
						t.Errorf("%s binding %d: columnar run produced no batches", g.name, bi)
					}
				}
			}
		}
	}
}

// TestGoldenColumnarMatchesStreaming: requests that still name the
// "streaming" engine get the serial columnar engine's answers bit-for-bit
// — same Vars, Rows, row order, Cout, Work and Scanned — for both join
// algorithms, serially and at Parallelism 2 and 8, over every template and
// curated binding.
func TestGoldenColumnarMatchesStreaming(t *testing.T) {
	mode, err := service.ParseEngineMode("streaming")
	if err != nil {
		t.Fatalf("streaming engine name rejected: %v", err)
	}
	env := sharedEnv(t)
	for _, g := range goldenTemplates() {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		for bi, b := range curatedBindings(t, g.tmpl, st, 3) {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			for _, alg := range []exec.JoinAlgorithm{exec.HashJoin, exec.SortMergeJoin} {
				cres, _, err := exec.Query(bound, st, exec.Options{Join: alg, Mode: exec.Columnar})
				if err != nil {
					t.Fatalf("%s binding %d columnar: %v", g.name, bi, err)
				}
				for _, par := range []int{1, 2, 8} {
					sres, _, err := exec.Query(bound, st, exec.Options{Join: alg, Mode: mode, Parallelism: par, MorselSize: 128})
					if err != nil {
						t.Fatalf("%s binding %d streaming parallelism %d: %v", g.name, bi, par, err)
					}
					if err := equalResults(sres, cres); err != nil {
						t.Errorf("%s binding %d (alg %d) streaming parallelism %d: %v", g.name, bi, alg, par, err)
					}
				}
			}
		}
	}
}

// TestGoldenPushdownPreservesResults: with filter pushdown enabled the
// final result rows stay identical on every template; only the cost
// accounting may shrink (never grow).
func TestGoldenPushdownPreservesResults(t *testing.T) {
	env := sharedEnv(t)
	for _, g := range goldenTemplates() {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		for bi, b := range curatedBindings(t, g.tmpl, st, 3) {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			plain, _, err := exec.Query(bound, st, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pushed, _, err := exec.Query(bound, st, exec.Options{PushFilters: true})
			if err != nil {
				t.Fatalf("%s binding %d pushed: %v", g.name, bi, err)
			}
			if len(plain.Rows) != len(pushed.Rows) {
				t.Fatalf("%s binding %d: pushdown changed result size %d vs %d",
					g.name, bi, len(plain.Rows), len(pushed.Rows))
			}
			for i := range plain.Rows {
				for j := range plain.Rows[i] {
					if plain.Rows[i][j] != pushed.Rows[i][j] {
						t.Fatalf("%s binding %d: pushdown changed row %d", g.name, bi, i)
					}
				}
			}
			if pushed.Cout > plain.Cout {
				t.Errorf("%s binding %d: pushdown increased Cout %v > %v", g.name, bi, pushed.Cout, plain.Cout)
			}
		}
	}
}

// TestGoldenParallelCuration: the curation pipeline returns byte-identical
// parameter classes whether the per-binding analysis is serial or fanned
// out across workers — on both benchmark stores.
func TestGoldenParallelCuration(t *testing.T) {
	env := sharedEnv(t)
	cases := []struct {
		name string
		tmpl *sparql.Query
		st   *store.Store
	}{
		{"bsbm-q4", bsbm.Q4(), env.BSBM},
		{"snb-q3", snb.Q3(), env.SNB},
	}
	for _, c := range cases {
		dom, err := core.ExtractDomain(c.tmpl, c.st)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := core.Analyze(c.tmpl, c.st, dom, core.AnalyzeOptions{MaxBindings: 120, Seed: 3, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := core.Analyze(c.tmpl, c.st, dom, core.AnalyzeOptions{MaxBindings: 120, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sc := core.Cluster(serial, core.ClusterOptions{})
		pc := core.Cluster(parallel, core.ClusterOptions{})
		if len(sc.Classes) != len(pc.Classes) {
			t.Fatalf("%s: class count differs: %d vs %d", c.name, len(sc.Classes), len(pc.Classes))
		}
		for i := range sc.Classes {
			a, b := sc.Classes[i], pc.Classes[i]
			if a.Signature != b.Signature || a.Band != b.Band ||
				a.CostLo != b.CostLo || a.CostHi != b.CostHi || len(a.Points) != len(b.Points) {
				t.Fatalf("%s: class %d differs between serial and parallel", c.name, i)
			}
			for j := range a.Points {
				if a.Points[j].Signature != b.Points[j].Signature || a.Points[j].Cost != b.Points[j].Cost {
					t.Fatalf("%s: class %d point %d differs", c.name, i, j)
				}
			}
		}
	}
}

// TestGoldenParallelMatchesSerial: over every BSBM/SNB template with
// curated bindings, morsel-driven execution at Parallelism 2 and 8 must be
// bit-identical to the serial columnar run — same Vars, same Rows in the
// same order, same measured Cout, Work and Scanned. A small MorselSize
// forces genuine multi-morsel parallelism at test scale; the morsel size
// never affects results, only the schedule.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	env := sharedEnv(t)
	for _, g := range goldenTemplates() {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		bindings := curatedBindings(t, g.tmpl, st, 3)
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			serial, _, err := exec.Query(bound, st, exec.Options{})
			if err != nil {
				t.Fatalf("%s binding %d serial: %v", g.name, bi, err)
			}
			for _, par := range []int{2, 8} {
				res, _, err := exec.Query(bound, st, exec.Options{Parallelism: par, MorselSize: 128})
				if err != nil {
					t.Fatalf("%s binding %d parallelism %d: %v", g.name, bi, par, err)
				}
				if err := equalResults(res, serial); err != nil {
					t.Errorf("%s binding %d parallelism %d: %v", g.name, bi, par, err)
				}
			}
		}
	}
}

// algebraTemplates are the compositional-algebra workload templates
// (OPTIONAL/UNION/aggregates).
func algebraTemplates() []goldenTemplate {
	return []goldenTemplate{
		{"bsbm-q5-optional", bsbm.Q5(), false},
		{"bsbm-q6-union", bsbm.Q6(), false},
		{"snb-q4-grouped", snb.Q4(), true},
	}
}

// TestGoldenAlgebraEngines: over every algebra template and curated
// binding, both engines — materializing, and columnar serially and at
// Parallelism 2 and 8 — agree bit-for-bit (Vars, Rows, row order, Cout,
// Work, Scanned) with the materializing run over the heap store, over the
// heap store itself, subject-hash sharded federations at 1 and 4 shards,
// and the mmap-backed copy.
func TestGoldenAlgebraEngines(t *testing.T) {
	env := sharedEnv(t)
	runs := []exec.Options{{Mode: exec.Materializing}}
	for _, par := range []int{1, 2, 8} {
		runs = append(runs, exec.Options{Parallelism: par, MorselSize: 128})
	}
	bases := func(st *store.Store) map[string]store.Source {
		return map[string]store.Source{
			"heap":     st,
			"shards=1": store.NewSharded(st, 1),
			"shards=4": store.NewSharded(st, 4),
			"mapped":   mappedCopy(t, st),
		}
	}
	bsbmBases, snbBases := bases(env.BSBM), bases(env.SNB)
	for _, g := range algebraTemplates() {
		st, srcs := env.BSBM, bsbmBases
		if g.snb {
			st, srcs = env.SNB, snbBases
		}
		bindings := curatedBindings(t, g.tmpl, st, 3)
		if len(bindings) < 3 {
			t.Fatalf("%s: only %d curated bindings", g.name, len(bindings))
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			ref, _, err := exec.Query(bound, st, exec.Options{Mode: exec.Materializing})
			if err != nil {
				t.Fatalf("%s binding %d materializing: %v", g.name, bi, err)
			}
			for name, src := range srcs {
				for _, opts := range runs {
					res, _, err := exec.Query(bound, src, opts)
					if err != nil {
						t.Fatalf("%s binding %d %s mode %d parallelism %d: %v", g.name, bi, name, opts.Mode, opts.Parallelism, err)
					}
					if err := equalResults(res, ref); err != nil {
						t.Errorf("%s binding %d %s mode %d parallelism %d: %v", g.name, bi, name, opts.Mode, opts.Parallelism, err)
					}
				}
			}
		}
	}
}

// TestGoldenShardInvariance: the headline sharding invariant. Every
// engine — materializing, columnar and columnar+leapfrog, the latter two
// at Parallelism 1, 2 and 8 — must produce bit-identical
// results (Vars, Rows, row order, Cout, Work, Scanned) over subject-hash
// sharded federations at 1 and 4 shards as over the plain store, for
// every golden template and curated binding. Per-shard sorted runs over
// disjoint subjects k-way merge into exactly the global index stream, so
// plans, rows and accounting cannot depend on the shard count.
func TestGoldenShardInvariance(t *testing.T) {
	env := sharedEnv(t)
	shardedBSBM := map[int]*store.Sharded{1: store.NewSharded(env.BSBM, 1), 4: store.NewSharded(env.BSBM, 4)}
	shardedSNB := map[int]*store.Sharded{1: store.NewSharded(env.SNB, 1), 4: store.NewSharded(env.SNB, 4)}
	type engineRun struct {
		name string
		opts exec.Options
	}
	runs := []engineRun{{"materializing", exec.Options{Mode: exec.Materializing}}}
	for _, par := range []int{1, 2, 8} {
		ms := 0
		if par > 1 {
			ms = 128
		}
		runs = append(runs,
			engineRun{fmt.Sprintf("columnar-p%d", par), exec.Options{Mode: exec.Columnar, Parallelism: par, MorselSize: ms}},
			engineRun{fmt.Sprintf("leapfrog-p%d", par), exec.Options{Mode: exec.Columnar, Leapfrog: true, Parallelism: par, MorselSize: ms}},
		)
	}
	for _, g := range goldenTemplates() {
		single, byCount := env.BSBM, shardedBSBM
		if g.snb {
			single, byCount = env.SNB, shardedSNB
		}
		bindings := curatedBindings(t, g.tmpl, single, 3)
		if len(bindings) < 3 {
			t.Fatalf("%s: only %d curated bindings", g.name, len(bindings))
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			for _, run := range runs {
				sres, splan, err := exec.Query(bound, single, run.opts)
				if err != nil {
					t.Fatalf("%s binding %d %s single: %v", g.name, bi, run.name, err)
				}
				for _, shards := range []int{1, 4} {
					res, plan, err := exec.Query(bound, byCount[shards], run.opts)
					if err != nil {
						t.Fatalf("%s binding %d %s shards=%d: %v", g.name, bi, run.name, shards, err)
					}
					if plan.Signature != splan.Signature {
						t.Fatalf("%s binding %d %s shards=%d: plans diverge: %s vs %s",
							g.name, bi, run.name, shards, plan.Signature, splan.Signature)
					}
					if err := equalResults(res, sres); err != nil {
						t.Errorf("%s binding %d %s shards=%d: %v", g.name, bi, run.name, shards, err)
					}
				}
			}
		}
	}
}

// mappedCopy round-trips a store through a v4 snapshot and reopens it from
// the in-memory image with zero deserialization — the experiment-scale
// equivalent of serving from an OS file mapping. The v4 writer emits terms
// in dictionary ID order, so the mapped copy assigns identical IDs and
// exact identical statistics, making results comparable ID-for-ID.
func mappedCopy(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshotVersion(&buf, 4); err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMappedBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != "mapped" {
		t.Fatalf("backend = %q, want mapped", m.Backend())
	}
	return m
}

// TestGoldenMappedBase: every engine — materializing, columnar and
// columnar+leapfrog, the latter two at Parallelism 1, 2 and 8 — must
// produce bit-identical results (Vars, Rows, row order, Cout, Work,
// Scanned) over the mmap-backed store and the heap store, for every golden
// template and curated binding.
func TestGoldenMappedBase(t *testing.T) {
	env := sharedEnv(t)
	mappedBSBM := mappedCopy(t, env.BSBM)
	mappedSNB := mappedCopy(t, env.SNB)
	type engineRun struct {
		name string
		opts exec.Options
	}
	runs := []engineRun{{"materializing", exec.Options{Mode: exec.Materializing}}}
	for _, par := range []int{1, 2, 8} {
		ms := 0
		if par > 1 {
			ms = 128
		}
		runs = append(runs,
			engineRun{fmt.Sprintf("columnar-p%d", par), exec.Options{Mode: exec.Columnar, Parallelism: par, MorselSize: ms}},
			engineRun{fmt.Sprintf("leapfrog-p%d", par), exec.Options{Mode: exec.Columnar, Leapfrog: true, Parallelism: par, MorselSize: ms}},
		)
	}
	for _, g := range goldenTemplates() {
		heap, mapped := env.BSBM, mappedBSBM
		if g.snb {
			heap, mapped = env.SNB, mappedSNB
		}
		bindings := curatedBindings(t, g.tmpl, heap, 3)
		if len(bindings) < 3 {
			t.Fatalf("%s: only %d curated bindings", g.name, len(bindings))
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			for _, run := range runs {
				hres, hplan, err := exec.Query(bound, heap, run.opts)
				if err != nil {
					t.Fatalf("%s binding %d %s heap: %v", g.name, bi, run.name, err)
				}
				mres, mplan, err := exec.Query(bound, mapped, run.opts)
				if err != nil {
					t.Fatalf("%s binding %d %s mapped: %v", g.name, bi, run.name, err)
				}
				if hplan.Signature != mplan.Signature {
					t.Fatalf("%s binding %d %s: plans diverge over mapped base: %s vs %s",
						g.name, bi, run.name, hplan.Signature, mplan.Signature)
				}
				if err := equalResults(mres, hres); err != nil {
					t.Errorf("%s binding %d %s: mapped diverges from heap: %v", g.name, bi, run.name, err)
				}
			}
		}
	}
}
