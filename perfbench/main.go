// Command perfbench is the repository's end-to-end serving benchmark.
//
// One run builds nothing itself (run.sh builds served, datagen and this
// command from the checkout first); it generates or reuses the dataset for
// the seed, derives a fixed request list from the seed through
// internal/core, starts served, drives it from two closed-loop
// connections, checks every answer, and prints its metrics. With -trace 1
// it also replays the same requests in-process through each layer's public
// functions, records one span per call, and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload bsbm-curated-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A correctness mismatch prints correct=false and exits with status 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/store"
)

// dataSeed is the datagen seed of every dataset. The workload seed drives
// the request list only, so runs with different seeds measure the same
// data: datasets from different generator seeds differ in size (SNB by
// ~3%) and in their small curated classes, and regenerating one per seed
// cost 4-15 s of every run.
const dataSeed = 1

type config struct {
	root     string // repository checkout
	work     string // build and cache directory inside the checkout
	bin      string // directory holding served and datagen
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string // datagen scale preset: "default"; the harness tests use "test"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bsbm-curated-hot, snb-uniform-cold or snb-sharded-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: bindings, request order and update payloads derive from it alone")
	flag.IntVar(&cfg.seconds, "seconds", 10, "sizes the request list to about this many seconds of traffic")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end run; 1: also replay traced in-process and print per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout the binaries were built from")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding served and datagen (default <root>/.bench_build/bin)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = "default"
	root, err := filepath.Abs(cfg.root)
	if err != nil || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments (need -trace 0|1 and -seconds >= 1)")
		os.Exit(2)
	}
	cfg.root = root
	cfg.work = filepath.Join(root, ".bench_build")
	if cfg.bin == "" {
		cfg.bin = filepath.Join(cfg.work, "bin")
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runState carries what one run has measured so far.
type runState struct {
	cfg  config
	w    Workload
	ds   dataset
	der  *Derived
	opts exec.Options
	// compactAt is the delta size at which served compacts, as its /stats
	// reports it (0: never); the in-process replay applies the same.
	compactAt int
	texts     map[string]string
	// streamJSON is the derived request list as written to
	// <prefix>.requests.json; equal seeds give equal bytes.
	streamJSON []byte
	setups     []float64
	opens      []float64
	timings    []CoreTiming

	timed, verify, tail []outcome
	wall                time.Duration
	s0, s1, sEnd        serverStats
	rss, peakRSS        float64

	problems []string
	details  map[string]any
}

func (rs *runState) problem(format string, args ...any) {
	rs.problems = append(rs.problems, fmt.Sprintf(format, args...))
}

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	rs := &runState{cfg: cfg, w: w, texts: map[string]string{}, details: map[string]any{}}
	for _, t := range w.Templates {
		rs.texts[t.Name] = t.Text
	}
	env := environment(cfg.root)
	rs.details["env"] = env
	fmt.Fprintf(out, "env: nproc=%d gomaxprocs=%d %s %s/%s cpu=%q commit=%s source=%s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH, env.CPUModel, env.Commit, env.SourceDigest)
	servedBin, datagenBin := filepath.Join(cfg.bin, "served"), filepath.Join(cfg.bin, "datagen")
	for _, b := range []string{servedBin, datagenBin} {
		if _, err := os.Stat(b); err != nil {
			return nil, fmt.Errorf("missing binary (build it with run.sh): %w", err)
		}
	}
	outDir := filepath.Join(cfg.work, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, cfg.seed, boolInt(cfg.trace)))
	logf, err := os.Create(prefix + ".served.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	t0 := time.Now()
	rs.ds, err = ensureData(ctx, cfg.work, datagenBin, w.Dataset, cfg.scale, dataSeed, w.Sharded)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "data: %s scale %s datagen seed %d: %d triples (ready in %.1fs, not timed)\n",
		w.Dataset, cfg.scale, dataSeed, rs.ds.Triples, time.Since(t0).Seconds())

	srv, st, err := rs.setup(ctx, servedBin, logf)
	if err != nil {
		return nil, err
	}
	defer release(st)
	err = rs.drive(srv)
	srv.stop()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(prefix+".requests.json", rs.streamJSON, 0o644); err != nil {
		return nil, err
	}
	if err := rs.check(ctx, st); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	all := append(append([]outcome(nil), rs.timed...), rs.tail...)
	res.Attempted = len(all)
	for _, o := range all {
		if o.failed() {
			res.Failed++
		}
	}
	e2e := rs.endToEnd()
	hits := float64(rs.s1.Cache.Hits - rs.s0.Cache.Hits)
	misses := float64(rs.s1.Cache.Misses - rs.s0.Cache.Misses)
	exercised := map[string]any{
		"timed_cache_hit_ratio": hits / math.Max(hits+misses, 1),
		"updates":               rs.sEnd.Updates.Updates,
		"compactions":           rs.sEnd.Updates.Compactions,
		"pending_delta":         rs.sEnd.Store.PendingInserts + rs.sEnd.Store.PendingDeletes,
		"backend":               rs.sEnd.Store.Backend,
		"engine":                rs.details["engine"],
	}
	rs.details["exercised"] = exercised
	fmt.Fprintf(out, "exercised: timed-phase plan-cache hit ratio %.3f; %d updates, %d compactions, pending delta %d; store %s; engine %s\n",
		exercised["timed_cache_hit_ratio"], rs.sEnd.Updates.Updates, rs.sEnd.Updates.Compactions,
		exercised["pending_delta"], rs.sEnd.Store.Backend, rs.details["engine"])
	var layers map[string]float64
	if cfg.trace {
		layers, err = rs.traced(ctx, prefix)
		if err != nil {
			return nil, err
		}
	}
	res.Correct = len(rs.problems) == 0
	for _, p := range rs.problems {
		fmt.Fprintln(out, "MISMATCH:", p)
	}
	printMetrics(out, "end-to-end", e2e, e2eUnits)
	chosen, units := e2e, e2eUnits
	if cfg.trace {
		printMetrics(out, "per-layer", layers, layerUnits)
		chosen, units = layers, layerUnits
	}
	for name, v := range chosen {
		res.Metrics[name] = metric{Value: finite(v), Unit: units[name]}
	}
	rs.details["end_to_end"] = e2e
	rs.details["per_layer"] = layers
	rs.details["problems"] = rs.problems
	rs.details["classes"] = rs.der.Classes
	if data, err := json.MarshalIndent(rs.details, "", "  "); err == nil {
		_ = os.WriteFile(prefix+".details.json", data, 0o644)
	}
	fmt.Fprintf(out, "details: %s.details.json\n", prefix)
	return res, nil
}

// setup derives the request list and starts served, setupReps times; the
// last served instance stays up for the run. Every repetition must derive
// a byte-identical request list.
func (rs *runState) setup(ctx context.Context, servedBin string, logw io.Writer) (*server, *store.Store, error) {
	w, cfg := rs.w, rs.cfg
	reads := max(w.ReadsPerSecond*cfg.seconds, minReads)
	tail := w.TailUpdatesPerSecond * cfg.seconds
	args := []string{"-data", rs.servedData()}
	if w.UpdateEvery > 0 || tail > 0 {
		args = append(args, "-allow-update")
	}
	if w.CompactThreshold != 0 {
		args = append(args, "-compact-threshold", strconv.Itoa(w.CompactThreshold))
	}
	var (
		srv   *server
		st    *store.Store
		first []byte
	)
	for rep := 0; rep < setupReps; rep++ {
		o0 := time.Now()
		if err := openAndRelease(rs.ds, w); err != nil {
			return nil, nil, err
		}
		rs.opens = append(rs.opens, ms(time.Since(o0)))

		t0 := time.Now()
		s, err := store.LoadAnyMapped(rs.ds.Snap)
		if err != nil {
			return nil, nil, err
		}
		der, err := deriveStream(w, s, cfg.seed, reads, tail)
		if err != nil {
			release(s)
			return nil, nil, err
		}
		sv, err := startServer(ctx, servedBin, args, logw)
		if err != nil {
			release(s)
			return nil, nil, err
		}
		if w.Endpoint == "execute" {
			err = sv.prepare(w.Templates)
		}
		rs.setups = append(rs.setups, time.Since(t0).Seconds())
		rs.timings = append(rs.timings, der.Timing)
		b, merr := json.Marshal(der.Stream)
		if err == nil {
			err = merr
		}
		if err != nil {
			sv.stop()
			release(s)
			return nil, nil, err
		}
		if rep == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			rs.problem("set-up repetition %d derived a different request list from the same seed", rep)
		}
		if rep < setupReps-1 {
			sv.stop()
			release(s)
			continue
		}
		srv, st, rs.der, rs.streamJSON = sv, s, der, b
	}
	stats, err := srv.stats()
	if err == nil {
		rs.opts, err = execOptions(stats)
	}
	if err != nil {
		srv.stop()
		release(st)
		return nil, nil, err
	}
	rs.compactAt = stats.Updates.CompactThreshold
	rs.details["engine"] = stats.Engine.Mode
	rs.details["served_workers"] = stats.Pool.Workers
	rs.details["served_args"] = args
	return srv, st, nil
}

func (rs *runState) servedData() string {
	if rs.w.Sharded {
		return rs.ds.Shards
	}
	return rs.ds.Snap
}

// openAndRelease opens the store served opens, in-process, and closes it
// again: the store.open_ms measurement.
func openAndRelease(ds dataset, w Workload) error {
	var (
		src store.Source
		err error
	)
	if w.Sharded {
		src, err = store.LoadSharded(ds.Shards, false)
	} else {
		src, err = store.LoadAnyMapped(ds.Snap)
	}
	if err != nil {
		return err
	}
	release(src)
	return nil
}

// openServed opens a fresh in-process copy of the store served serves.
func (rs *runState) openServed() (store.Source, error) {
	if rs.w.Sharded {
		return store.LoadSharded(rs.ds.Shards, false)
	}
	return store.LoadAnyMapped(rs.ds.Snap)
}

// execOptions returns the execution options served runs with, as /stats
// reports them, so the in-process replay runs the engine served runs.
func execOptions(st serverStats) (exec.Options, error) {
	mode, err := service.ParseEngineMode(st.Engine.Mode)
	if err != nil {
		return exec.Options{}, err
	}
	o := service.DefaultOptions().Exec
	o.Mode = mode
	o.Leapfrog = st.Engine.Leapfrog
	o.Parallelism = 1
	return o, nil
}

// drive sends warm-up, the timed phase, verification reads and the update
// tail to served.
func (rs *runState) drive(srv *server) error {
	s := rs.der.Stream
	if err := warmPageCache(rs.servedData()); err != nil {
		return err
	}
	warm, err := sendAll(srv, split(s.Warmup, clients), rs.texts)
	if err != nil {
		return err
	}
	for _, o := range warm {
		if o.failed() {
			return fmt.Errorf("warm-up request %d failed: %d %s", o.Req.ID, o.Status, o.Err)
		}
	}
	settle()
	if rs.s0, err = srv.stats(); err != nil {
		return err
	}
	lists, wall, err := drive(srv, s.Clients, rs.texts, 0)
	if err != nil {
		return err
	}
	rs.wall = wall
	rs.timed = interleave(lists)
	if rs.s1, err = srv.stats(); err != nil {
		return err
	}
	if rs.rss, rs.peakRSS, err = srv.memory(); err != nil {
		return err
	}
	if len(s.Verify) > 0 {
		if rs.verify, err = sendAll(srv, [][]Request{s.Verify}, rs.texts); err != nil {
			return err
		}
	}
	if len(s.Tail) > 0 {
		settle()
		lists, _, err := drive(srv, s.Tail, rs.texts, tailThink)
		if err != nil {
			return err
		}
		rs.tail = interleave(lists)
	}
	rs.sEnd, err = srv.stats()
	return err
}

// tailThink is the update tail's think time between updates. It spreads
// the tail over several seconds, so its percentiles average over the
// machine's short fast and slow spells instead of sampling one or two.
const tailThink = 20 * time.Millisecond

// settle collects the benchmark's own garbage and returns it to the OS,
// then pauses briefly, so a measured phase does not share the CPU with
// the harness's collector or with work left over from the phase before.
func settle() {
	debug.FreeOSMemory()
	time.Sleep(500 * time.Millisecond)
}

// warmPageCache reads the files under path once, so the timed phase does
// not pay for reading the snapshot from disk when the page cache has lost
// it since the last run (the dataset is mapped, not loaded).
func warmPageCache(path string) error {
	buf := make([]byte, 1<<20)
	return filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		for {
			if _, err := f.Read(buf); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
}

func sendAll(srv *server, lists [][]Request, texts map[string]string) ([]outcome, error) {
	outs, _, err := drive(srv, lists, texts, 0)
	return interleave(outs), err
}

// split deals reqs round-robin onto n lists.
func split(reqs []Request, n int) [][]Request {
	out := make([][]Request, n)
	for i, r := range reqs {
		out[i%n] = append(out[i%n], r)
	}
	return out
}

// interleave merges per-client lists round-robin, the order Stream.Timed
// uses.
func interleave[T any](lists [][]T) []T {
	var out []T
	for i := 0; ; i++ {
		more := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// replayPass is one serial in-process replay of the run's requests.
type replayPass struct {
	wall  time.Duration // timed-phase requests only
	reads map[int]readOut
	acks  map[int]ackOut
	spans []Span
}

// replay replays warm-up (untraced), the timed phase and the update tail
// over a fresh copy of src, recording spans when traced.
func (rs *runState) replay(ctx context.Context, src store.Source, reqs, tail []Request, traced bool) (*replayPass, error) {
	rp, err := newReplayer(ctx, src, rs.opts, rs.compactAt, rs.w.Templates, nil)
	if err != nil {
		return nil, err
	}
	p := &replayPass{reads: map[int]readOut{}, acks: map[int]ackOut{}}
	step := func(r Request) error {
		if r.Kind == "update" {
			a, err := rp.update(r)
			p.acks[r.ID] = a
			return err
		}
		o, err := rp.read(r)
		p.reads[r.ID] = o
		return err
	}
	for _, r := range rs.der.Stream.Warmup {
		if _, err := rp.read(r); err != nil {
			return nil, fmt.Errorf("replay warm-up %d: %w", r.ID, err)
		}
	}
	if traced {
		rp.rec = newRecorder()
	}
	runtime.GC() // start every pass with the same heap, not the last pass's garbage
	t0 := time.Now()
	for _, r := range reqs {
		if err := step(r); err != nil {
			return nil, fmt.Errorf("replay request %d: %w", r.ID, err)
		}
	}
	p.wall = time.Since(t0)
	for _, r := range tail {
		if err := step(r); err != nil {
			return nil, fmt.Errorf("replay tail update %d: %w", r.ID, err)
		}
	}
	p.spans = rp.rec.Spans()
	return p, nil
}

// traced runs the traced in-process replay and derives the per-layer
// metrics.
func (rs *runState) traced(ctx context.Context, prefix string) (map[string]float64, error) {
	s := rs.der.Stream
	timedReqs, tailReqs := s.Timed(), interleave(s.Tail)
	pass := func(traced bool, open func() (store.Source, error), reqs, tail []Request) (*replayPass, error) {
		src, err := open()
		if err != nil {
			return nil, err
		}
		defer release(src)
		return rs.replay(ctx, src, reqs, tail, traced)
	}
	plain, err := pass(false, rs.openServed, timedReqs, tailReqs)
	if err != nil {
		return nil, err
	}
	tr, err := pass(true, rs.openServed, timedReqs, tailReqs)
	if err != nil {
		return nil, err
	}
	// Served's answers against the traced replay of the same request (only
	// where the answer cannot depend on how the two clients interleaved).
	if rs.w.UpdateEvery == 0 {
		for _, o := range rs.timed {
			if o.Req.Kind != "update" && !o.failed() {
				if err := checkRead(o, tr.reads[o.Req.ID]); err != nil {
					rs.problem("traced replay: %v", err)
				}
			}
		}
	}
	rec := &Recorder{spans: tr.spans}
	if err := rec.WriteFile(prefix + ".spans.jsonl"); err != nil {
		return nil, err
	}
	m, err := rs.layerMetrics(tr, plain)
	if err != nil {
		return nil, err
	}
	// Contrast stream: the other sampling mode, for the class statistics.
	contrast, err := pass(false, rs.openServed, s.Contrast, nil)
	if err != nil {
		return nil, err
	}
	rs.classMetrics(m, tr, timedReqs, contrast, s.Contrast)
	if rs.w.Sharded {
		single, err := pass(true, func() (store.Source, error) { return store.LoadAnyMapped(rs.ds.Snap) }, timedReqs, tailReqs)
		if err != nil {
			return nil, err
		}
		sharded := execRunUs(tr.spans)
		flat := execRunUs(single.spans)
		m["store.shard_overhead_ratio"] = sharded / flat
		rs.details["exec_run_us_sharded"] = sharded
		rs.details["exec_run_us_single"] = flat
	} else {
		m["store.shard_overhead_ratio"] = 0
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
