package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestColumnarMatchesStreaming: on the social store, the columnar engine
// reproduces the serial pipelined run (the engine the "streaming" name now
// selects) bit-for-bit at Parallelism 2 and 8 with single-triple morsels,
// for both join algorithms, and that serial run matches the materializing
// reference.
func TestColumnarMatchesStreaming(t *testing.T) {
	st := buildSocialStore(t)
	queries := []string{
		`SELECT * WHERE { ?s <http://x/knows> ?o . }`,
		`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/age> ?x . }`,
		`SELECT ?p ?d WHERE { ?p <http://x/creator> ?c . ?p <http://x/date> ?d . ?c <http://x/age> ?x . FILTER(?x > 18) } ORDER BY ?d`,
		`SELECT DISTINCT ?c WHERE { ?p <http://x/creator> ?c . }`,
		`SELECT * WHERE { ?a <http://x/knows> ?b . ?c <http://x/age> ?x . } LIMIT 4 OFFSET 1`,
		`SELECT * WHERE { ?s <http://x/age> ?x . FILTER(?x >= 30) FILTER(?x < 45) }`,
	}
	for qi, src := range queries {
		for _, alg := range []JoinAlgorithm{HashJoin, SortMergeJoin} {
			want := run(t, st, src, Options{Join: alg})
			ref := run(t, st, src, Options{Join: alg, Mode: Materializing})
			assertResultsIdentical(t, fmt.Sprintf("q%d alg%d serial vs materializing", qi, alg), want, ref)
			for _, par := range []int{2, 8} {
				pg := run(t, st, src, Options{Join: alg, Mode: Columnar, Parallelism: par, MorselSize: 1})
				assertResultsIdentical(t, fmt.Sprintf("q%d alg%d columnar-p%d", qi, alg, par), pg, want)
			}
		}
	}
}

// TestColumnarKernelStats: the columnar run reports its kernel counters
// while the materializing engine leaves them zero.
func TestColumnarKernelStats(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT * WHERE { ?s <http://x/age> ?x . FILTER(?x > 18) }`
	c := run(t, st, src, Options{Mode: Columnar})
	if c.Kernels.Batches == 0 || c.Kernels.FilterRows == 0 {
		t.Fatalf("columnar kernels not counted: %+v", c.Kernels)
	}
	m := run(t, st, src, Options{Mode: Materializing})
	if m.Kernels != (KernelStats{}) {
		t.Fatalf("materializing run reports columnar kernels: %+v", m.Kernels)
	}
}

// buildStarStore builds a store where EVERY binary join order over the
// three-pattern star materializes a large intermediate: three classes of
// n hubs each carry exactly two of the predicates p1/p2/p3 (so every
// pairwise hub intersection has at least n members), while only nFull
// extra hubs carry all three. Whatever pair a binary plan joins first, it
// materializes n+nFull rows to produce nFull results; the multiway join
// intersects all three hub sets up front.
func buildStarStore(t testing.TB, n, nFull int) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	preds := []string{"p1", "p2", "p3"}
	for class := 0; class < 3; class++ {
		for i := 0; i < n; i++ {
			h := iri(fmt.Sprintf("hub%d-%04d", class, i))
			for pi, p := range preds {
				if pi == class {
					continue // each class misses one predicate
				}
				add(h, iri(p), iri(fmt.Sprintf("%s-leaf%d-%04d", p, class, i)))
			}
		}
	}
	for i := 0; i < nFull; i++ {
		h := iri(fmt.Sprintf("full%04d", i))
		for _, p := range preds {
			add(h, iri(p), iri(fmt.Sprintf("%s-full%04d", p, i)))
		}
	}
	return b.Build()
}

const starSrc = `SELECT * WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
}`

// TestLeapfrogStarCoutAdvantage is the PR's acceptance check in unit-test
// form: on a star query whose binary plan materializes a large
// intermediate, the leapfrog triejoin's measured Cout and Work must be
// asymptotically smaller (here: >10x), with the identical row multiset.
func TestLeapfrogStarCoutAdvantage(t *testing.T) {
	st := buildStarStore(t, 200, 2) // >=202-row binary intermediate, 2 result rows
	bin := run(t, st, starSrc, Options{})
	lf := run(t, st, starSrc, Options{Mode: Columnar, Leapfrog: true})
	if len(lf.Rows) != 2 || len(bin.Rows) != 2 {
		t.Fatalf("rows: leapfrog %d, binary %d, want 2", len(lf.Rows), len(bin.Rows))
	}
	if got, want := rowsAsStrings(st, lf), rowsAsStrings(st, bin); !reflect.DeepEqual(got, want) {
		t.Fatalf("row multiset diverges:\nleapfrog %v\nbinary   %v", got, want)
	}
	if lf.Kernels.LeapfrogRows != 2 {
		t.Fatalf("LeapfrogRows = %d, want 2 (did the leapfrog node run?)", lf.Kernels.LeapfrogRows)
	}
	// The binary plan pays for the 200-row p1-p2 intermediate in both Cout
	// and Work; the multiway join intersects all three patterns on ?h first
	// and never materializes it.
	if lf.Cout*10 >= bin.Cout {
		t.Fatalf("Cout advantage missing: leapfrog %v vs binary %v", lf.Cout, bin.Cout)
	}
	if lf.Work*10 >= bin.Work {
		t.Fatalf("Work advantage missing: leapfrog %v vs binary %v", lf.Work, bin.Work)
	}
}

// TestLeapfrogParallelIdentical: the value-partitioned parallel leapfrog
// must be bit-identical to the serial run — rows, order and accounting —
// because per level-match accounting is additive across level-0 value
// partitions and morsel-order concatenation restores the serial order.
func TestLeapfrogParallelIdentical(t *testing.T) {
	st := buildStarStore(t, 300, 100)
	serial := run(t, st, starSrc, Options{Mode: Columnar, Leapfrog: true})
	if len(serial.Rows) != 100 {
		t.Fatalf("serial rows = %d, want 100", len(serial.Rows))
	}
	for _, par := range []int{2, 8} {
		for _, ms := range []int{1, 16} {
			got := run(t, st, starSrc, Options{Mode: Columnar, Leapfrog: true, Parallelism: par, MorselSize: ms})
			assertResultsIdentical(t, fmt.Sprintf("leapfrog-p%d-m%d", par, ms), got, serial)
			if par > 1 && ms == 1 && got.Morsels < 2 {
				t.Fatalf("p%d m%d: %d morsels, leapfrog did not parallelize", par, ms, got.Morsels)
			}
		}
	}
}

// TestLeapfrogEpilogue: leapfrog composes with the epilogue operators and
// with filters.
func TestLeapfrogEpilogue(t *testing.T) {
	st := buildStarStore(t, 60, 20)
	src := `SELECT DISTINCT ?h WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
} ORDER BY ?h`
	bin := run(t, st, src, Options{})
	lf := run(t, st, src, Options{Mode: Columnar, Leapfrog: true})
	// With a total ORDER BY the row order is fully determined, so the
	// results agree bit-for-bit in rows (accounting differs by design).
	if !reflect.DeepEqual(lf.Rows, bin.Rows) {
		t.Fatalf("ordered rows diverge: %d vs %d", len(lf.Rows), len(bin.Rows))
	}
}

// TestLeapfrogOptionIgnoredOutsideColumnar: the materializing engine
// never lowers to the multiway operator even when the option is set.
func TestLeapfrogOptionIgnoredOutsideColumnar(t *testing.T) {
	if PhysOptions(Options{Mode: Materializing, Leapfrog: true}).Leapfrog {
		t.Fatal("materializing mode passed Leapfrog through to the physical planner")
	}
	if !PhysOptions(Options{Mode: Columnar, Leapfrog: true}).Leapfrog {
		t.Fatal("columnar mode must pass Leapfrog through")
	}
	st := buildStarStore(t, 20, 3)
	res := run(t, st, starSrc, Options{Mode: Materializing, Leapfrog: true})
	if res.Kernels.LeapfrogRows != 0 {
		t.Fatalf("materializing run executed the leapfrog operator: %+v", res.Kernels)
	}
}

// TestLeapfrogExplainSignature: the prepared plan's EXPLAIN rendering
// names the multiway operator, and the variant cache key differs from the
// base key so cached binary and leapfrog plans never collide.
func TestLeapfrogExplainSignature(t *testing.T) {
	st := buildStarStore(t, 20, 3)
	q := sparql.MustParse(starSrc)
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := plan.Lower(c, p, PhysOptions(Options{Mode: Columnar, Leapfrog: true}))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Root.Op != plan.PhysLeapfrog {
		t.Fatalf("root = %v, want leapfrog\n%s", ph.Root.Op, ph)
	}
}

// TestColumnarProbeScratchReuse: the columnar probe operator must reuse
// one MatchBuf scratch buffer across all probes of a batch instead of
// allocating per row (the overlay merge path used to).
func TestColumnarProbeScratchReuse(t *testing.T) {
	st := buildStarStore(t, 50, 5)
	d := st.NewDelta()
	d, err := d.Apply([]rdf.Triple{rdf.NewTriple(iri("hub9999"), iri("p1"), iri("x"))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ov := d.Overlay()
	src := `SELECT * WHERE { ?h <http://x/p1> ?a . ?h <http://x/p2> ?b . }`
	want := run(t, ov, src, Options{Mode: Materializing})
	got := run(t, ov, src, Options{Mode: Columnar})
	assertResultsIdentical(t, "overlay columnar", got, want)
	if got.Kernels.Batches == 0 {
		t.Fatal("columnar path did not run")
	}
}
