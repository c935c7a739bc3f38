package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// readOut is what the replay of one read produced.
type readOut struct {
	RowCount int
	Digest   string
	Cout     float64
	Work     float64
	Scanned  int
	Exec     time.Duration // exec.Result.Duration
	Alloc    uint64        // heap bytes allocated by exec.RunCtx (traced runs only)
}

// ackOut is what the replay of one update produced.
type ackOut struct {
	Inserted  int
	Deleted   int
	Triples   int
	Compacted bool
}

// payload mirrors the fields the service renders for one result, so the
// replay's JSON encode span does the same work as the server's.
type payload struct {
	Vars          []string   `json:"vars"`
	Rows          [][]string `json:"rows"`
	RowCount      int        `json:"row_count"`
	Cout          float64    `json:"cout"`
	Work          float64    `json:"work"`
	Scanned       int        `json:"scanned"`
	DurationUs    int64      `json:"duration_us"`
	PlanSignature string     `json:"plan_signature"`
	CacheHit      bool       `json:"cache_hit"`
	Generation    uint64     `json:"generation"`
}

type planEntry struct {
	key string
	c   *plan.Compiled
	p   *plan.Plan
}

// planCache is an LRU of compiled plans, flushed on every published update,
// like the service's per-generation plan cache.
type planCache struct {
	cap     int
	order   *list.List
	entries map[string]*list.Element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

func (c *planCache) get(key string) (*planEntry, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planEntry), true
	}
	return nil, false
}

func (c *planCache) put(e *planEntry) {
	c.entries[e.key] = c.order.PushFront(e)
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.entries, old.Value.(*planEntry).key)
	}
}

func (c *planCache) reset() {
	c.order.Init()
	clear(c.entries)
}

// replayer sends requests serially and in-process through the public
// function of each layer, recording one span per call when rec is set.
type replayer struct {
	ctx       context.Context
	st        store.Source
	opts      exec.Options
	threshold int // delta size at which an update compacts, as served's /stats resolves it; 0 never
	texts     map[string]string
	prepared  map[string]*sparql.Query
	canon     map[string]string
	cache     *planCache
	rec       *Recorder
	gen       uint64
	buf       bytes.Buffer
	allocs    []metrics.Sample
}

func newReplayer(ctx context.Context, st store.Source, opts exec.Options, threshold int, tmpls []Template, rec *Recorder) (*replayer, error) {
	r := &replayer{
		ctx: ctx, st: st, opts: opts, threshold: threshold, rec: rec,
		texts: map[string]string{}, prepared: map[string]*sparql.Query{}, canon: map[string]string{},
		cache:  newPlanCache(1024),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	for _, t := range tmpls {
		q, err := sparql.Parse(t.Text)
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", t.Name, err)
		}
		r.texts[t.Name] = t.Text
		r.prepared[t.Name] = q
		r.canon[t.Name] = q.String()
	}
	return r, nil
}

func (r *replayer) allocated() uint64 {
	if r.rec == nil {
		return 0
	}
	metrics.Read(r.allocs)
	return r.allocs[0].Value.Uint64()
}

// read replays one /query or /execute request.
func (r *replayer) read(req Request) (readOut, error) {
	id := int32(req.ID)
	b, err := parseWire(req.Bindings)
	if err != nil {
		return readOut{}, err
	}
	root := r.rec.Begin(id, 0, "request")
	tmpl, text := r.prepared[req.Template], r.canon[req.Template]
	if tmpl == nil {
		return readOut{}, fmt.Errorf("request %d: unknown template %q", req.ID, req.Template)
	}
	if req.Kind == "query" {
		sp := r.rec.Begin(id, root, "sparql.Parse")
		q, err := sparql.Parse(r.texts[req.Template])
		r.rec.End(sp)
		if err != nil {
			return readOut{}, err
		}
		tmpl, text = q, q.String()
	}
	key := plan.CacheKey(text, b)
	ent, hit := r.cache.get(key)
	if !hit {
		bound := tmpl
		if len(tmpl.Params()) > 0 || len(b) > 0 {
			sp := r.rec.Begin(id, root, "sparql.Bind")
			bound, err = tmpl.Bind(b)
			r.rec.End(sp)
			if err != nil {
				return readOut{}, err
			}
		}
		sp := r.rec.Begin(id, root, "plan.Compile")
		c, err := plan.Compile(bound, r.st)
		r.rec.End(sp)
		if err != nil {
			return readOut{}, err
		}
		sp = r.rec.Begin(id, root, "plan.Optimize")
		p, err := plan.Optimize(c, plan.NewEstimator(r.st))
		r.rec.End(sp)
		if err != nil {
			return readOut{}, err
		}
		ent = &planEntry{key: key, c: c, p: p}
		r.cache.put(ent)
	}
	if r.opts.Mode != exec.Materializing {
		// exec.RunCtx lowers the plan itself; lowering it once more here
		// times that share, which exec.run_us then subtracts.
		sp := r.rec.Begin(id, root, "plan.Lower")
		_, err := plan.Lower(ent.c, ent.p, exec.PhysOptions(r.opts))
		r.rec.End(sp)
		if err != nil {
			return readOut{}, err
		}
	}
	a0 := r.allocated()
	sp := r.rec.Begin(id, root, "exec.RunCtx")
	res, err := exec.RunCtx(r.ctx, ent.c, ent.p, r.st, r.opts)
	r.rec.End(sp)
	a1 := r.allocated()
	if err != nil {
		return readOut{}, err
	}
	sp = r.rec.Begin(id, root, "dict.TryDecode")
	d := r.st.Dict()
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if t, ok := d.TryDecode(v); ok {
				cells[j] = t.String()
			} else {
				cells[j] = "UNDEF"
			}
		}
		rows[i] = cells
	}
	r.rec.End(sp)
	sp = r.rec.Begin(id, root, "json.Encode")
	vars := make([]string, len(res.Vars))
	for i, v := range res.Vars {
		vars[i] = "?" + string(v)
	}
	r.buf.Reset()
	err = json.NewEncoder(&r.buf).Encode(payload{
		Vars: vars, Rows: rows, RowCount: len(res.Rows), Cout: res.Cout, Work: res.Work,
		Scanned: res.Scanned, DurationUs: res.Duration.Microseconds(),
		PlanSignature: ent.p.Signature, CacheHit: hit, Generation: r.gen,
	})
	r.rec.End(sp)
	r.rec.End(root)
	if err != nil {
		return readOut{}, err
	}
	return readOut{
		RowCount: len(res.Rows), Digest: rowsDigest(rows),
		Cout: res.Cout, Work: res.Work, Scanned: res.Scanned, Exec: res.Duration,
		Alloc: a1 - a0,
	}, nil
}

// update replays one /update request: parse, apply to a fresh delta over
// the current snapshot, then publish an overlay or compact once the delta
// reaches the threshold served reported.
func (r *replayer) update(req Request) (ackOut, error) {
	id := int32(req.ID)
	root := r.rec.Begin(id, 0, "request")
	defer r.rec.End(root)
	sp := r.rec.Begin(id, root, "sparql.ParseUpdate")
	u, err := sparql.ParseUpdate(req.Update)
	r.rec.End(sp)
	if err != nil {
		return ackOut{}, err
	}
	var (
		next      store.Source
		compacted bool
	)
	switch cur := r.st.(type) {
	case *store.Sharded:
		sd0 := cur.NewDelta()
		sp = r.rec.Begin(id, root, "exec.ApplyUpdateSharded")
		sd, err := exec.ApplyUpdateSharded(sd0, u)
		r.rec.End(sp)
		if err != nil {
			return ackOut{}, err
		}
		if sd != sd0 {
			sp = r.rec.Begin(id, root, "store.ShardedDelta.Publish")
			next = sd.Publish(func(_ int, d *store.Delta) bool {
				if r.threshold > 0 && d.Size() >= r.threshold {
					compacted = true
					return true
				}
				return false
			}, store.BuildOptions{})
			r.rec.End(sp)
		}
	case *store.Store:
		d0 := cur.NewDelta()
		sp = r.rec.Begin(id, root, "exec.ApplyUpdateDelta")
		d, err := exec.ApplyUpdateDelta(d0, u)
		r.rec.End(sp)
		if err != nil {
			return ackOut{}, err
		}
		if d != d0 {
			if r.threshold > 0 && d.Size() >= r.threshold {
				sp = r.rec.Begin(id, root, "store.Delta.Commit")
				next, compacted = d.Commit(store.BuildOptions{}), true
			} else {
				sp = r.rec.Begin(id, root, "store.Delta.Overlay")
				next = d.Overlay()
			}
			r.rec.End(sp)
		}
	default:
		return ackOut{}, fmt.Errorf("update: unsupported store type %T", r.st)
	}
	if next != nil {
		r.st = next
		r.gen++
		r.cache.reset()
	}
	return ackOut{
		Inserted: u.InsertCount(), Deleted: u.DeleteCount(),
		Triples: r.st.Len(), Compacted: compacted,
	}, nil
}
