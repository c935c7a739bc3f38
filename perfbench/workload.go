package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Template is one query template a workload sends.
type Template struct {
	Name string // name used for /prepare and in the request list
	Text string // template text with %Param placeholders
}

// Workload fixes the traffic of one benchmark workload. The request list
// itself is derived from the seed and the dataset by deriveStream.
type Workload struct {
	Name      string
	Dataset   string // "bsbm" or "snb"
	Sharded   bool   // serve the 4-shard snapshot directory
	Endpoint  string // "execute" (prepared) or "query" (one-shot text)
	Curated   bool   // main stream draws from curated classes, else uniform
	Templates []Template
	// Classes is how many curated classes per template the stream draws
	// from: the most populous ones (see topClasses).
	Classes int
	// PoolDraws is how many class-sampler draws make up each class's
	// binding pool, which curated requests draw from. A warm plan cache
	// needs the pools to fit it; without that need, a large pool lets a
	// run's latency tail sample the class rather than the few heaviest
	// bindings a small pool happens to hold.
	PoolDraws int
	// ReadsPerSecond sizes the request list: reads = ReadsPerSecond ×
	// --seconds (at least minReads), so a run lasts about --seconds on a
	// 2-core machine while the list stays fixed for a given seed.
	ReadsPerSecond int
	// UpdateEvery > 0 makes every UpdateEvery-th request of a client an
	// update, sent inside the timed phase.
	UpdateEvery int
	// TailUpdatesPerSecond > 0 sends that many updates per --seconds after
	// the timed read phase and its checks (read-only workloads), so every
	// workload reports update latency.
	TailUpdatesPerSecond int
	// CompactThreshold is passed to served as -compact-threshold when
	// non-zero.
	CompactThreshold int
}

// Fixed shape of every workload.
const (
	clients        = 2  // closed-loop connections
	checkPerClass  = 96 // warm-up and verification reads: the first pool bindings of each class
	postsPerUpdate = 5  // each update names 5 posts/offers = 10 triples
	setupReps      = 5  // set-up repetitions; setup_s is their median
	contrastDraws  = 60 // traced-only contrast stream draws per class/template
	// analysisSeed seeds the Cout analysis's sample of each domain. The
	// curated classes are a property of the dataset and the template, like
	// the dataset itself (see dataSeed): every workload seed draws its
	// bindings from the same classes.
	analysisSeed = 1
	// minReads puts at least 10 read samples beyond the p99 of a run.
	minReads = 1000
)

var workloads = []Workload{
	{
		Name:     "bsbm-curated-hot",
		Dataset:  "bsbm",
		Endpoint: "execute",
		Curated:  true,
		Templates: []Template{
			{"bsbm-q1", bsbm.QueryQ1Text},
			{"bsbm-q3", bsbm.QueryQ3Text},
			{"bsbm-q4", bsbm.QueryQ4Text},
		},
		Classes:              3,
		PoolDraws:            96, // 9 pools of at most 96 fit the 1024-entry plan cache
		ReadsPerSecond:       120,
		TailUpdatesPerSecond: 15,
	},
	{
		Name:     "snb-uniform-cold",
		Dataset:  "snb",
		Endpoint: "query",
		Curated:  false,
		Templates: []Template{
			{"snb-q1", snb.QueryQ1Text},
			{"snb-q3", snb.QueryQ3Text},
		},
		Classes:              2,
		PoolDraws:            96, // the traced contrast stream's curated pools
		ReadsPerSecond:       1900,
		TailUpdatesPerSecond: 15,
	},
	{
		Name:     "snb-sharded-rw",
		Dataset:  "snb",
		Sharded:  true,
		Endpoint: "execute",
		Curated:  true,
		Templates: []Template{
			{"snb-q2", snb.QueryQ2Text},
			{"snb-q4", snb.QueryQ4Text},
		},
		Classes:          2,
		PoolDraws:        1024, // every update flushes the plan cache anyway
		ReadsPerSecond:   60,
		UpdateEvery:      10,
		CompactThreshold: 70,
	},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Request is one generated request. The list of requests is the only input
// served receives; it is a pure function of the seed and the dataset.
type Request struct {
	ID       int               `json:"id"`
	Client   int               `json:"client"`
	Kind     string            `json:"kind"` // "execute", "query" or "update"
	Template string            `json:"template,omitempty"`
	Class    string            `json:"class,omitempty"` // curated class label or "uniform"
	Bindings map[string]string `json:"bindings,omitempty"`
	Update   string            `json:"update,omitempty"`
	Inserts  int               `json:"inserts,omitempty"` // triples named by INSERT DATA
	Deletes  int               `json:"deletes,omitempty"` // triples named by DELETE DATA
}

// Stream is everything a run sends or replays, in order.
type Stream struct {
	Warmup   []Request   `json:"warmup"`   // untimed, before the timed phase
	Clients  [][]Request `json:"clients"`  // timed phase, one list per connection
	Tail     [][]Request `json:"tail"`     // read-only workloads: update tail, one connection
	Verify   []Request   `json:"verify"`   // reads checked after the timed phase
	Contrast []Request   `json:"contrast"` // traced-only: the other sampling mode
}

// Timed returns the timed-phase requests in replay order: clients
// interleaved round-robin, the order a serial replay uses.
func (s *Stream) Timed() []Request { return interleave(s.Clients) }

// ClassInfo describes one curated class used by a stream.
type ClassInfo struct {
	Template string              `json:"template"`
	Label    string              `json:"label"`
	Members  int                 `json:"members"`
	CostLo   float64             `json:"cost_lo"`
	CostHi   float64             `json:"cost_hi"`
	Pool     []map[string]string `json:"-"` // bindings as sent: param -> N-Triples term
}

// CoreTiming is the time spent in each internal/core stage while deriving
// the streams.
type CoreTiming struct {
	Extract  time.Duration
	Analyze  time.Duration
	Cluster  time.Duration
	Analyzed int // bindings analyzed
}

// Derived is the result of deriving a workload's streams.
type Derived struct {
	Stream  *Stream
	Classes []ClassInfo
	Timing  CoreTiming
}

// deriveStream builds the workload's request lists from seed and st through
// internal/core: domain extraction, Cout analysis and clustering per
// template, then per-class (curated) or whole-domain (uniform) sampling.
// reads is the timed read count and tail the update-tail length.
func deriveStream(w Workload, st *store.Store, seed int64, reads, tail int) (*Derived, error) {
	d := &Derived{Stream: &Stream{}}
	rng := rand.New(rand.NewSource(seed))
	type tmplState struct {
		t       Template
		uniform *core.UniformSampler
		classes []ClassInfo
	}
	var ts []tmplState
	for i, t := range w.Templates {
		q, err := sparql.Parse(t.Text)
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", t.Name, err)
		}
		t0 := time.Now()
		dom, err := core.ExtractDomain(q, st)
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", t.Name, err)
		}
		t1 := time.Now()
		a, err := core.Analyze(q, st, dom, core.AnalyzeOptions{Seed: analysisSeed})
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", t.Name, err)
		}
		t2 := time.Now()
		cl := core.Cluster(a, core.ClusterOptions{})
		t3 := time.Now()
		d.Timing.Extract += t1.Sub(t0)
		d.Timing.Analyze += t2.Sub(t1)
		d.Timing.Cluster += t3.Sub(t2)
		d.Timing.Analyzed += len(a.Points)
		state := tmplState{t: t, uniform: core.NewUniformSampler(dom, seed*31+int64(i))}
		for k, c := range topClasses(cl, w.Classes) {
			label := core.Label(t.Name+"/", k)
			info := ClassInfo{Template: t.Name, Label: label, Members: len(c.Points), CostLo: c.CostLo, CostHi: c.CostHi}
			seen := map[string]bool{}
			for _, b := range core.NewClassSampler(c, seed*131+int64(10*i+k)).Sample(w.PoolDraws) {
				key := plan.BindingSignature(b)
				if !seen[key] {
					seen[key] = true
					info.Pool = append(info.Pool, toBinding(b))
				}
			}
			state.classes = append(state.classes, info)
			d.Classes = append(d.Classes, info)
		}
		if len(state.classes) == 0 {
			return nil, fmt.Errorf("template %s: clustering produced no classes", t.Name)
		}
		ts = append(ts, state)
	}

	s := d.Stream
	s.Clients = make([][]Request, clients)
	nextID := 0
	mk := func(client int, kind, tmpl, class string, b map[string]string) Request {
		nextID++
		return Request{ID: nextID, Client: client, Kind: kind, Template: tmpl, Class: class, Bindings: b}
	}
	// curatedDraw / uniformDraw pick the template (and class) of the n-th
	// draw from balanced, shuffled rounds, so every run sends the same mix.
	type slot struct{ t, c int }
	var curatedSlots []slot
	for i, tsi := range ts {
		for k := range tsi.classes {
			curatedSlots = append(curatedSlots, slot{i, k})
		}
	}
	var round []slot
	curatedDraw := func(r *rand.Rand) (slot, map[string]string) {
		if len(round) == 0 {
			round = append(round, curatedSlots...)
			r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		}
		sl := round[0]
		round = round[1:]
		pool := ts[sl.t].classes[sl.c].Pool
		return sl, pool[r.Intn(len(pool))]
	}
	var tround []int
	uniformDraw := func(r *rand.Rand) (int, map[string]string) {
		if len(tround) == 0 {
			for i := range ts {
				tround = append(tround, i)
			}
			r.Shuffle(len(tround), func(i, j int) { tround[i], tround[j] = tround[j], tround[i] })
		}
		i := tround[0]
		tround = tround[1:]
		return i, toBinding(ts[i].uniform.Sample(1)[0])
	}
	draw := func(client int, r *rand.Rand) Request {
		if w.Curated {
			sl, b := curatedDraw(r)
			return mk(client, w.Endpoint, ts[sl.t].t.Name, ts[sl.t].classes[sl.c].Label, b)
		}
		i, b := uniformDraw(r)
		return mk(client, w.Endpoint, ts[i].t.Name, "uniform", b)
	}

	// Warm-up: the first checkPerClass bindings of every pool once (all of
	// a pool that fits the plan cache), or as many uniform draws as one
	// client sends in a tenth of the run (uniform).
	firstOfPools := func() []Request {
		var out []Request
		for _, tsi := range ts {
			for _, c := range tsi.classes {
				for _, b := range c.Pool[:min(len(c.Pool), checkPerClass)] {
					out = append(out, mk(0, w.Endpoint, tsi.t.Name, c.Label, b))
				}
			}
		}
		return out
	}
	if w.Curated {
		s.Warmup = firstOfPools()
	} else {
		for i := 0; i < reads/10; i++ {
			s.Warmup = append(s.Warmup, draw(0, rng))
		}
	}

	// Timed phase: reads split evenly over the clients; with UpdateEvery,
	// every UpdateEvery-th request of a client is an update.
	ups := make([]*updater, clients)
	for c := range ups {
		ups[c] = newUpdater(w.Dataset, seed, c)
	}
	for c := 0; c < clients; c++ {
		n := reads / clients
		for total := n + updatesFor(n, w.UpdateEvery); len(s.Clients[c]) < total; {
			if w.UpdateEvery > 0 && (len(s.Clients[c])+1)%w.UpdateEvery == 0 {
				nextID++
				s.Clients[c] = append(s.Clients[c], ups[c].next(nextID, rng))
				continue
			}
			r := draw(c, rng)
			ups[c].observe(r)
			s.Clients[c] = append(s.Clients[c], r)
		}
	}
	// The update tail goes over one connection: updates serialize in the
	// service anyway, and a lone client measures each update's own cost
	// rather than its wait behind the other client's.
	if tail > 0 {
		s.Tail = make([][]Request, 1)
		for i := 0; i < tail; i++ {
			nextID++
			s.Tail[0] = append(s.Tail[0], ups[0].next(nextID, rng))
		}
	}

	// Verification reads, sent after a timed phase with updates (whose reads
	// race with the writes): the first checkPerClass bindings of every
	// pool. Read-only phases are checked request by request against the
	// replay instead.
	if w.UpdateEvery > 0 {
		s.Verify = firstOfPools()
	}

	// Contrast stream for the traced run: the sampling mode the workload
	// does not send, so curated and uniform classes are compared on the
	// same data.
	crng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, tsi := range ts {
		if w.Curated {
			for j := 0; j < contrastDraws*len(tsi.classes); j++ {
				s.Contrast = append(s.Contrast, mk(0, w.Endpoint, tsi.t.Name, "uniform", toBinding(tsi.uniform.Sample(1)[0])))
			}
			continue
		}
		for _, c := range tsi.classes {
			for j := 0; j < contrastDraws; j++ {
				s.Contrast = append(s.Contrast, mk(0, w.Endpoint, tsi.t.Name, c.Label, c.Pool[crng.Intn(len(c.Pool))]))
			}
		}
	}
	return d, nil
}

// updatesFor returns how many updates a client list of n reads carries.
func updatesFor(n, every int) int {
	if every <= 1 {
		return 0
	}
	return n / (every - 1)
}

// topClasses returns the n most populous classes (ties to the cheaper
// class), in increasing cost order. Taking classes by rank keeps the set
// stable across seeds, where small classes come and go.
func topClasses(cl *core.Clustering, n int) []*core.Class {
	idx := make([]int, len(cl.Classes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return len(cl.Classes[idx[a]].Points) > len(cl.Classes[idx[b]].Points)
	})
	if len(idx) > n {
		idx = idx[:n]
	}
	sort.Ints(idx)
	out := make([]*core.Class, len(idx))
	for i, j := range idx {
		out[i] = &cl.Classes[j]
	}
	return out
}

// toBinding renders a binding as sent on the wire.
func toBinding(b sparql.Binding) map[string]string {
	wire := make(map[string]string, len(b))
	for p, t := range b {
		wire[string(p)] = t.String()
	}
	return wire
}

// parseWire converts a request's wire bindings back into a sparql.Binding.
func parseWire(m map[string]string) (sparql.Binding, error) {
	if len(m) == 0 {
		return nil, nil
	}
	b := make(sparql.Binding, len(m))
	for name, src := range m {
		t, err := rdf.ParseTerm(src)
		if err != nil {
			return nil, fmt.Errorf("binding %s: %w", name, err)
		}
		b[sparql.Param(name)] = t
	}
	return b, nil
}

// updater generates one client's update sequence: INSERT DATA of new
// posts (SNB) or offers (BSBM) attached to entities the client has read,
// and, every third update, DELETE DATA of the client's oldest insert that
// is still present.
type updater struct {
	dataset string
	seed    int64
	client  int
	n       int        // updates generated
	made    int        // entities created
	anchors []string   // N-Triples terms of persons/products seen in reads
	live    [][]string // triples (N-Triples lines) of inserts not yet deleted
}

func newUpdater(dataset string, seed int64, client int) *updater {
	return &updater{dataset: dataset, seed: seed, client: client}
}

// observe records the entity a read request names, as an anchor for later
// inserts.
func (u *updater) observe(r Request) {
	for _, p := range []string{"Person", "Product"} {
		if v, ok := r.Bindings[p]; ok {
			u.anchors = append(u.anchors, v)
		}
	}
}

func (u *updater) next(id int, rng *rand.Rand) Request {
	u.n++
	r := Request{ID: id, Client: u.client, Kind: "update"}
	if u.n%3 == 0 && len(u.live) > 0 {
		del := u.live[0]
		u.live = u.live[1:]
		r.Update = "DELETE DATA {\n" + joinLines(del) + "}"
		r.Deletes = len(del)
		return r
	}
	anchor := u.anchor(rng)
	var triples []string
	for i := 0; i < postsPerUpdate; i++ {
		u.made++
		triples = append(triples, u.entity(anchor, rng)...)
	}
	u.live = append(u.live, triples)
	r.Update = "INSERT DATA {\n" + joinLines(triples) + "}"
	r.Inserts = len(triples)
	return r
}

func (u *updater) anchor(rng *rand.Rand) string {
	if len(u.anchors) > 0 {
		return u.anchors[len(u.anchors)-1-rng.Intn(min(len(u.anchors), 64))]
	}
	if u.dataset == "bsbm" {
		return bsbm.ProductIRI(1 + rng.Intn(100)).String()
	}
	return snb.PersonIRI(rng.Intn(100)).String()
}

// entity returns the two triples of one new post (SNB) or offer (BSBM).
// Subjects are unique per seed, client and sequence number. SNB creation
// dates are distinct and later than any generated post, so the inserts
// reach the top of "newest posts" queries without ties.
func (u *updater) entity(anchor string, rng *rand.Rand) []string {
	if u.dataset == "bsbm" {
		s := rdf.NewIRI(fmt.Sprintf("%sbench/s%d/c%d/offer%d", bsbm.NS, u.seed, u.client, u.made)).String()
		price := rdf.NewInteger(int64(100 + rng.Intn(9900))).String()
		return []string{
			s + " " + bsbm.PredOfferProduct.String() + " " + anchor + " .",
			s + " " + bsbm.PredOfferPrice.String() + " " + price + " .",
		}
	}
	s := rdf.NewIRI(fmt.Sprintf("%sbench/s%d/c%d/post%d", snb.NS, u.seed, u.client, u.made)).String()
	at := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(u.made*clients+u.client) * time.Second)
	date := rdf.NewTypedLiteral(at.Format("2006-01-02T15:04:05Z"), rdf.XSDDateTime).String()
	return []string{
		s + " " + snb.PredHasCreator.String() + " " + anchor + " .",
		s + " " + snb.PredCreated.String() + " " + date + " .",
	}
}

func joinLines(ls []string) string {
	out := ""
	for _, l := range ls {
		out += "  " + l + "\n"
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN for empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
