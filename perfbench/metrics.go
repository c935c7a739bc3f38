package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// e2eUnits and layerUnits name every metric a run prints, with its unit.
var e2eUnits = map[string]string{
	"throughput_rps": "req/s",
	"read_p50_ms":    "ms",
	"read_p99_ms":    "ms",
	"update_mean_ms": "ms",
	"update_p90_ms":  "ms",
	"setup_s":        "s",
}

var layerUnits = map[string]string{
	"rss_mb":                          "MB",
	"failed_ratio":                    "fraction",
	"client.read_samples":             "count",
	"client.update_samples":           "count",
	"sparql.parse_us":                 "us",
	"sparql.bind_us":                  "us",
	"sparql.parse_update_us":          "us",
	"plan.compile_us":                 "us",
	"plan.optimize_us":                "us",
	"plan.lower_us":                   "us",
	"plan.signatures_per_template":    "count",
	"service.cache_hit_ratio":         "fraction",
	"service.overhead_us":             "us",
	"service.encode_us":               "us",
	"service.admission_wait_ms":       "ms",
	"service.rejected":                "count",
	"service.peak_rss_mb":             "MB",
	"exec.run_us":                     "us",
	"exec.alloc_bytes":                "bytes",
	"exec.work":                       "count",
	"exec.cout":                       "count",
	"exec.scanned":                    "count",
	"exec.scanned_per_row":            "ratio",
	"dict.decode_us":                  "us",
	"dict.decode_us_per_row":          "us",
	"exec.apply_update_us":            "us",
	"store.publish_us":                "us",
	"store.compact_ms":                "ms",
	"store.compactions":               "count",
	"store.pending_delta":             "count",
	"store.open_ms":                   "ms",
	"store.shard_overhead_ratio":      "ratio",
	"core.extract_domain_ms":          "ms",
	"core.analyze_ms":                 "ms",
	"core.cluster_ms":                 "ms",
	"core.analyze_bindings_per_s":     "1/s",
	"core.class_cout_q90_q10.curated": "ratio",
	"core.class_cout_q90_q10.uniform": "ratio",
	"core.class_wall_q90_q10.curated": "ratio",
	"core.class_wall_q90_q10.uniform": "ratio",
	"core.spearman_cout_wall.curated": "rho",
	"core.spearman_cout_wall.uniform": "rho",
	"trace.overhead_pct":              "%",
	"trace.spans":                     "count",
}

// endToEnd computes the end-to-end metrics of the run.
func (rs *runState) endToEnd() map[string]float64 {
	var reads, updates []float64
	byClass := map[string][]float64{}
	for _, o := range append(append([]outcome(nil), rs.timed...), rs.tail...) {
		switch {
		case o.failed():
		case o.Req.Kind == "update":
			updates = append(updates, ms(o.Latency))
		default:
			reads = append(reads, ms(o.Latency))
			k := o.Req.Template + " " + o.Req.Class
			byClass[k] = append(byClass[k], ms(o.Latency))
		}
	}
	classLat := map[string][4]float64{}
	for k, xs := range byClass {
		classLat[k] = [4]float64{float64(len(xs)), quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9)}
	}
	rs.details["read_latency_ms_by_class_n_q10_q50_q90"] = classLat
	rs.details["update_latency_ms_q10_q50_q90_max"] = []float64{quantile(updates, 0.1), quantile(updates, 0.5), quantile(updates, 0.9), quantile(updates, 1)}
	rs.details["read_samples"] = len(reads)
	rs.details["read_samples_beyond_p99"] = len(reads) - int(math.Ceil(0.99*float64(len(reads))))
	rs.details["update_samples"] = len(updates)
	return map[string]float64{
		"throughput_rps": windowedRate(rs.timed, rs.wall, throughputWindows),
		"read_p50_ms":    quantile(reads, 0.50),
		"read_p99_ms":    quantile(reads, 0.99),
		"update_mean_ms": mean(updates),
		"update_p90_ms":  quantile(updates, 0.90),
		"setup_s":        quantile(rs.setups, 0.5),
	}
}

// mean is the arithmetic mean of xs. Update latency is reported as a mean,
// not a median: on a shared 2-core machine the same update runs in two
// modes (about 7 and 11 ms for BSBM) that alternate in spells of seconds,
// and a median jumps between the modes with the mix while a mean moves
// with it in proportion.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// throughputWindows is how many equal slices of the timed phase
// throughput_rps takes the median over.
const throughputWindows = 20

// windowedRate cuts the phase into n equal time slices and returns the
// median rate of successful completions over the slices, so a transient
// stall of the machine in one slice does not move the run's throughput.
// Failed requests do not count: answering quickly with an error is not
// throughput (and any failure fails the run besides).
func windowedRate(outs []outcome, wall time.Duration, n int) float64 {
	counts := make([]float64, n)
	for _, o := range outs {
		if o.failed() {
			continue
		}
		i := int(int64(o.Done) * int64(n) / int64(wall))
		counts[min(max(i, 0), n-1)]++
	}
	slice := wall.Seconds() / float64(n)
	for i := range counts {
		counts[i] /= slice
	}
	return quantile(counts, 0.5)
}

// execRunUs is the total exec.RunCtx time minus the plan.Lower time it
// contains, in microseconds.
func execRunUs(spans []Span) float64 {
	var run, lower int64
	for _, s := range spans {
		switch s.Name {
		case "exec.RunCtx":
			run += s.End - s.Start
		case "plan.Lower":
			lower += s.End - s.Start
		}
	}
	return float64(run-lower) / 1e3
}

// layerMetrics derives the per-layer metrics from the traced pass, the
// untraced pass and the end-to-end run.
func (rs *runState) layerMetrics(tr, plain *replayPass) (map[string]float64, error) {
	self, err := SelfTimes(tr.spans)
	if err != nil {
		return nil, err
	}
	kind := map[int32]string{}
	for _, r := range rs.der.Stream.Timed() {
		kind[int32(r.ID)] = r.Kind
	}
	isRead := func(s Span) bool { k, ok := kind[s.Req]; return ok && k != "update" }
	readSelf := selfByName(tr.spans, self, isRead)
	updSelf := selfByName(tr.spans, self, func(s Span) bool { return !isRead(s) })

	nReads, nUpdates := 0, 0
	var rows, scanned float64
	var work, cout, alloc float64
	for _, r := range rs.der.Stream.Timed() {
		if r.Kind == "update" {
			continue
		}
		o := tr.reads[r.ID]
		nReads++
		rows += float64(o.RowCount)
		scanned += float64(o.Scanned)
		work += o.Work
		cout += o.Cout
		alloc += float64(o.Alloc)
	}
	nUpdates = len(tr.acks)
	perRead := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(nReads, 1)) }
	perUpdate := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(nUpdates, 1)) }

	// Publish spans split by whether that update compacted.
	var pubNs, pubN, compNs, compN int64
	for i, s := range tr.spans {
		switch s.Name {
		case "store.ShardedDelta.Publish", "store.Delta.Overlay", "store.Delta.Commit":
			if tr.acks[int(s.Req)].Compacted {
				compNs += self[i]
				compN++
			} else {
				pubNs += self[i]
				pubN++
			}
		}
	}
	m := map[string]float64{
		"sparql.parse_us":        perRead(readSelf["sparql.Parse"]),
		"sparql.bind_us":         perRead(readSelf["sparql.Bind"]),
		"plan.compile_us":        perRead(readSelf["plan.Compile"]),
		"plan.optimize_us":       perRead(readSelf["plan.Optimize"]),
		"plan.lower_us":          perRead(readSelf["plan.Lower"]),
		"exec.run_us":            perRead(readSelf["exec.RunCtx"] - readSelf["plan.Lower"]),
		"dict.decode_us":         perRead(readSelf["dict.TryDecode"]),
		"dict.decode_us_per_row": float64(readSelf["dict.TryDecode"]) / 1e3 / math.Max(rows, 1),
		"service.encode_us":      perRead(readSelf["json.Encode"]),
		"exec.alloc_bytes":       alloc / float64(max(nReads, 1)),
		"exec.work":              work / float64(max(nReads, 1)),
		"exec.cout":              cout / float64(max(nReads, 1)),
		"exec.scanned":           scanned / float64(max(nReads, 1)),
		"exec.scanned_per_row":   scanned / math.Max(rows, 1),
		"sparql.parse_update_us": perUpdate(updSelf["sparql.ParseUpdate"]),
		"exec.apply_update_us":   perUpdate(updSelf["exec.ApplyUpdateSharded"] + updSelf["exec.ApplyUpdateDelta"]),
		"store.publish_us":       float64(pubNs) / 1e3 / float64(max(pubN, 1)),
		"store.compact_ms":       float64(compNs) / 1e6 / float64(max(compN, 1)),
		"trace.overhead_pct":     100 * (tr.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds(),
		"trace.spans":            float64(len(tr.spans)),
	}

	// Served-side numbers from the end-to-end run.
	var reads, overhead []float64
	sigs := map[string]map[string]bool{}
	for _, o := range rs.timed {
		if o.failed() || o.Req.Kind == "update" {
			continue
		}
		reads = append(reads, ms(o.Latency))
		overhead = append(overhead, float64(o.Latency.Microseconds()-o.DurationUs))
		if sigs[o.Req.Template] == nil {
			sigs[o.Req.Template] = map[string]bool{}
		}
		sigs[o.Req.Template][o.Signature] = true
	}
	nsig := 0
	for _, s := range sigs {
		nsig += len(s)
	}
	failed := 0
	all := append(append([]outcome(nil), rs.timed...), rs.tail...)
	nUpd := 0
	for _, o := range all {
		if o.failed() {
			failed++
		}
		if o.Req.Kind == "update" && !o.failed() {
			nUpd++
		}
	}
	m["failed_ratio"] = float64(failed) / float64(max(len(all), 1))
	m["client.read_samples"] = float64(len(reads))
	m["client.update_samples"] = float64(nUpd)
	m["plan.signatures_per_template"] = float64(nsig) / float64(max(len(sigs), 1))
	m["service.cache_hit_ratio"] = rs.details["exercised"].(map[string]any)["timed_cache_hit_ratio"].(float64)
	m["service.overhead_us"] = quantile(overhead, 0.5)
	m["service.admission_wait_ms"] = (rs.s1.Pool.TokenWaitMs - rs.s0.Pool.TokenWaitMs) / float64(max(len(rs.timed), 1))
	m["service.rejected"] = float64(rs.s1.Pool.Rejected - rs.s0.Pool.Rejected)
	m["rss_mb"] = rs.rss
	m["service.peak_rss_mb"] = rs.peakRSS
	m["store.compactions"] = float64(rs.sEnd.Updates.Compactions)
	m["store.pending_delta"] = float64(rs.sEnd.Store.PendingInserts + rs.sEnd.Store.PendingDeletes)
	m["store.open_ms"] = quantile(rs.opens, 0.5)

	var ext, ana, clu, rate []float64
	for _, t := range rs.timings {
		ext = append(ext, ms(t.Extract))
		ana = append(ana, ms(t.Analyze))
		clu = append(clu, ms(t.Cluster))
		rate = append(rate, float64(t.Analyzed)/t.Analyze.Seconds())
	}
	m["core.extract_domain_ms"] = quantile(ext, 0.5)
	m["core.analyze_ms"] = quantile(ana, 0.5)
	m["core.cluster_ms"] = quantile(clu, 0.5)
	m["core.analyze_bindings_per_s"] = quantile(rate, 0.5)
	return m, nil
}

// classMetrics reports the paper's claim in wall time: within a curated
// class, exec wall time (and Cout) should spread little; over a uniform
// stream, much more. The curated stream is the workload's own when it is
// curated, else the contrast stream; likewise for uniform.
func (rs *runState) classMetrics(m map[string]float64, tr *replayPass, timed []Request, contrast *replayPass, creqs []Request) {
	type sample struct{ cout, wall []float64 }
	groups := map[string]*sample{} // "template\x00class"
	add := func(reqs []Request, reads map[int]readOut) {
		for _, r := range reqs {
			if r.Kind == "update" {
				continue
			}
			o := reads[r.ID]
			k := r.Template + "\x00" + r.Class
			if groups[k] == nil {
				groups[k] = &sample{}
			}
			groups[k].cout = append(groups[k].cout, o.Cout)
			groups[k].wall = append(groups[k].wall, float64(o.Exec.Nanoseconds())/1e3)
		}
	}
	add(timed, tr.reads)
	add(creqs, contrast.reads)
	spread := func(xs []float64) float64 { return (quantile(xs, 0.9) + 1) / (quantile(xs, 0.1) + 1) }
	var cc, cw, uc, uw []float64
	perTmpl := map[string]*sample{} // curated classes pooled per template
	uniTmpl := map[string]*sample{} // uniform per template
	table := []map[string]any{}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		tmpl, class, _ := strings.Cut(k, "\x00")
		table = append(table, map[string]any{
			"template": tmpl, "class": class, "n": len(g.wall),
			"wall_us_q10": quantile(g.wall, 0.1), "wall_us_median": quantile(g.wall, 0.5), "wall_us_q90": quantile(g.wall, 0.9),
			"cout_q10": quantile(g.cout, 0.1), "cout_median": quantile(g.cout, 0.5), "cout_q90": quantile(g.cout, 0.9),
		})
		dst := perTmpl
		if class == "uniform" {
			dst = uniTmpl
			uc = append(uc, spread(g.cout))
			uw = append(uw, spread(g.wall))
		} else {
			cc = append(cc, spread(g.cout))
			cw = append(cw, spread(g.wall))
		}
		if dst[tmpl] == nil {
			dst[tmpl] = &sample{}
		}
		dst[tmpl].cout = append(dst[tmpl].cout, g.cout...)
		dst[tmpl].wall = append(dst[tmpl].wall, g.wall...)
	}
	rho := func(by map[string]*sample) []float64 {
		var out []float64
		for _, s := range by {
			if r := stats.Spearman(s.cout, s.wall); !math.IsNaN(r) {
				out = append(out, r)
			}
		}
		return out
	}
	rs.details["class_table"] = table
	m["core.class_cout_q90_q10.curated"] = quantile(cc, 0.5)
	m["core.class_wall_q90_q10.curated"] = quantile(cw, 0.5)
	m["core.class_cout_q90_q10.uniform"] = quantile(uc, 0.5)
	m["core.class_wall_q90_q10.uniform"] = quantile(uw, 0.5)
	m["core.spearman_cout_wall.curated"] = quantile(rho(perTmpl), 0.5)
	m["core.spearman_cout_wall.uniform"] = quantile(rho(uniTmpl), 0.5)
}

func printMetrics(out io.Writer, title string, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, m[n], units[n])
	}
}

// finite maps NaN and ±Inf (a metric with no samples) to 0, which JSON can
// carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
