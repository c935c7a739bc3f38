package service

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/store"
)

// buildStarServiceStore builds a store with enough star structure that a
// three-pattern hub query both answers non-trivially and is
// leapfrog-eligible.
func buildStarServiceStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	iri := rdf.NewIRI
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		h := iri(rdf.NewIRI("http://x/hub").Value + string(rune('a'+i)))
		add(h, iri("http://x/p1"), rdf.NewInteger(int64(i)))
		add(h, iri("http://x/p2"), rdf.NewLiteral("x"))
		if i%4 == 0 {
			add(h, iri("http://x/p3"), rdf.NewLiteral("y"))
		}
	}
	return b.Build()
}

const starServiceQuery = `SELECT * WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
}`

// TestColumnarService: a service configured with the columnar engine (and
// leapfrog) answers identically to the materializing reference and reports
// its kernel counters through Stats, while the materializing service
// reports none.
func TestColumnarService(t *testing.T) {
	st := buildStarServiceStore(t)
	ref := New(st, "", Options{Exec: exec.Options{Mode: exec.Materializing}})
	col := New(st, "", Options{Exec: exec.Options{Mode: exec.Columnar}})
	lf := New(st, "", Options{Exec: exec.Options{Mode: exec.Columnar, Leapfrog: true}})

	ctx := context.Background()
	want, err := ref.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Result.Rows) != len(want.Result.Rows) ||
		got.Result.Cout != want.Result.Cout || got.Result.Work != want.Result.Work {
		t.Fatalf("columnar service diverges: %d rows cout=%v work=%v, want %d rows cout=%v work=%v",
			len(got.Result.Rows), got.Result.Cout, got.Result.Work,
			len(want.Result.Rows), want.Result.Cout, want.Result.Work)
	}
	lfOut, err := lf.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lfOut.Result.Rows) != len(want.Result.Rows) {
		t.Fatalf("leapfrog service rows = %d, want %d", len(lfOut.Result.Rows), len(want.Result.Rows))
	}

	refStats, colStats, lfStats := ref.Stats(), col.Stats(), lf.Stats()
	if refStats.Engine.Mode != "materializing" || refStats.Engine.Kernels != (KernelStats{}) {
		t.Fatalf("materializing service engine stats: %+v", refStats.Engine)
	}
	if colStats.Engine.Mode != "columnar" || colStats.Engine.Kernels.Batches == 0 {
		t.Fatalf("columnar service engine stats: %+v", colStats.Engine)
	}
	if !lfStats.Engine.Leapfrog || lfStats.Engine.Kernels.LeapfrogRows == 0 {
		t.Fatalf("leapfrog service engine stats: %+v", lfStats.Engine)
	}
}

// TestEngineVariantCacheKeys: services with different engine configurations
// derive distinct plan-cache keys from the same query text, and the
// columnar default keeps the historical key format.
func TestEngineVariantCacheKeys(t *testing.T) {
	cases := []struct {
		opts exec.Options
		want string
	}{
		{exec.Options{}, ""},
		{exec.Options{Mode: exec.Materializing}, "materializing"},
		{exec.Options{Mode: exec.Columnar, Leapfrog: true}, "columnar+leapfrog"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if got := engineVariant(c.opts); got != c.want {
			t.Fatalf("engineVariant(%+v) = %q, want %q", c.opts, got, c.want)
		}
		if seen[engineVariant(c.opts)] {
			t.Fatalf("variant %q not unique", c.want)
		}
		seen[engineVariant(c.opts)] = true
	}
	// Each variant service still caches within itself.
	st := buildStarServiceStore(t)
	svc := New(st, "", Options{Exec: exec.Options{Mode: exec.Columnar, Leapfrog: true}})
	ctx := context.Background()
	if _, err := svc.Query(ctx, starServiceQuery, nil); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("second identical query missed the plan cache")
	}
	if svc.Stats().Engine.Kernels.LeapfrogRows == 0 {
		t.Fatal("cached leapfrog plan did not execute the leapfrog operator")
	}
}

// TestParseEngineMode: every accepted -engine name maps to its mode and
// renders back through engineMode as /stats reports it; "streaming" and
// the empty default select columnar, and an unknown name is an error.
func TestParseEngineMode(t *testing.T) {
	cases := []struct {
		name     string
		want     exec.ExecMode
		rendered string
		wantErr  bool
	}{
		{"", exec.Columnar, "columnar", false},
		{"streaming", exec.Columnar, "columnar", false},
		{"columnar", exec.Columnar, "columnar", false},
		{"materializing", exec.Materializing, "materializing", false},
		{"vectorized", exec.Columnar, "columnar", true},
	}
	for _, c := range cases {
		got, err := ParseEngineMode(c.name)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseEngineMode(%q) error = %v, want error %v", c.name, err, c.wantErr)
		}
		if got != c.want {
			t.Fatalf("ParseEngineMode(%q) = %v, want %v", c.name, got, c.want)
		}
		if r := engineMode(got); r != c.rendered {
			t.Fatalf("engineMode(ParseEngineMode(%q)) = %q, want %q", c.name, r, c.rendered)
		}
	}
	if _, err := ParseEngine("materializing", true); err == nil {
		t.Fatal("ParseEngine accepted -leapfrog under the materializing engine")
	}
	for _, name := range []string{"", "streaming", "columnar"} {
		if _, err := ParseEngine(name, true); err != nil {
			t.Fatalf("ParseEngine(%q, leapfrog) = %v, want nil", name, err)
		}
	}
}
