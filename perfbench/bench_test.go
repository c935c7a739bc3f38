package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bsbm"
	"repro/internal/exec"
	"repro/internal/snb"
	"repro/internal/store"
)

func testStore(t *testing.T, dataset string, seed int64) *store.Store {
	t.Helper()
	var (
		st  *store.Store
		err error
	)
	if dataset == "bsbm" {
		cfg := bsbm.TestConfig()
		cfg.Seed = seed
		st, _, err = bsbm.BuildStore(cfg)
	} else {
		cfg := snb.TestConfig()
		cfg.Seed = seed
		st, _, err = snb.BuildStore(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func streamJSON(t *testing.T, w Workload, seed int64) []byte {
	t.Helper()
	d, err := deriveStream(w, testStore(t, w.Dataset, seed), seed, 300, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d.Stream)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameRequestList(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := streamJSON(t, w, 7), streamJSON(t, w, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("two derivations from seed 7 differ")
			}
			if c := streamJSON(t, w, 8); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 derived the same request list")
			}
		})
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		{ID: 6, Parent: 0, Name: "request", Start: 200, End: 210},
	}
	self, err := SelfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// request: 100 - |[10,50] ∪ [90,100]| = 100 - 50.
	want := []int64{50, 10, 30, 30, 10, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", spans[i].ID, spans[i].Name, self[i], want[i])
		}
	}
	if _, err := SelfTimes([]Span{{ID: 1, Parent: 3}}); err == nil {
		t.Error("a span whose parent does not exist was accepted")
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *Recorder
	if id := r.Begin(1, 0, "x"); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	r.End(0)
	if len(r.Spans()) != 0 {
		t.Fatal("nil recorder holds spans")
	}
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	w, err := workloadByName("bsbm-curated-hot")
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t, w.Dataset, 3)
	d, err := deriveStream(w, st, 3, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(context.Background(), st, execOptionsForTest(t), 0, w.Templates, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := d.Stream.Timed()[0]
	want, err := rp.read(req)
	if err != nil {
		t.Fatal(err)
	}
	good := outcome{Req: req, Status: 200, RowCount: want.RowCount, Digest: want.Digest}
	if err := checkRead(good, want); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	bad := good
	bad.RowCount++
	if checkRead(bad, want) == nil {
		t.Error("tampered row_count accepted")
	}
	bad = good
	bad.Digest = rowsDigest([][]string{{"<http://example.org/tampered>"}})
	if checkRead(bad, want) == nil {
		t.Error("tampered rows accepted")
	}

	ack := outcome{Req: Request{ID: 1, Kind: "update", Inserts: 10}, Status: 200, Generation: 2,
		Ack: ackOut{Inserted: 10, Triples: 110}}
	if p := checkAcks([]outcome{ack}, 100); len(p) != 0 {
		t.Fatalf("correct ack rejected: %v", p)
	}
	ack.Ack.Triples = 111
	if p := checkAcks([]outcome{ack}, 100); len(p) == 0 {
		t.Error("tampered ack triple count accepted")
	}

	rejected := good
	rejected.Status = 429
	if p := checkFailures([]outcome{good, rejected}); len(p) != 1 {
		t.Errorf("failed request: got problems %v, want one", p)
	}
}

// TestThroughputCountsSuccessesOnly checks that failed requests add
// nothing to throughput_rps.
func TestThroughputCountsSuccessesOnly(t *testing.T) {
	var outs []outcome
	for i := 0; i < 100; i++ {
		o := outcome{Status: 200, Done: time.Duration(i) * 10 * time.Millisecond}
		if i%2 == 1 {
			o.Status = 503
		}
		outs = append(outs, o)
	}
	if got := windowedRate(outs, time.Second, 10); got != 50 {
		t.Errorf("rate %v, want 50 successful requests per second", got)
	}
}

func execOptionsForTest(t *testing.T) exec.Options {
	t.Helper()
	var st serverStats
	st.Engine.Mode = "streaming"
	o, err := execOptions(st)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSmokeWorkloads builds served and datagen, then runs every workload
// traced at test scale and checks that it passes and prints every metric.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	build := osexec.Command("go", "build", "-o", bin+string(os.PathSeparator), "repro/cmd/served", "repro/cmd/datagen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{root: dir, work: filepath.Join(dir, "work"), bin: bin, workload: w.Name,
				seed: 1, seconds: 1, trace: true, scale: "test"}
			var out bytes.Buffer
			res, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			for name, unit := range layerUnits {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("per-layer metric %s missing from the result (got %+v)", name, m)
				}
			}
			for _, units := range []map[string]string{e2eUnits, layerUnits} {
				for name := range units {
					if !strings.Contains(out.String(), " "+name+" ") {
						t.Errorf("metric %s not printed", name)
					}
				}
			}
		})
	}
}
