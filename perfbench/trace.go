package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the recorder's
// epoch; Parent is 0 for a request's root span.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so the untraced replay runs the same code path.
type Recorder struct {
	epoch time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Begin(req, parent int32, name string) int32 {
	if r == nil {
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

// End closes span id.
func (r *Recorder) End(id int32) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// Spans returns the recorded spans in id order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteFile writes the spans as JSON lines, one span per line.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once,
// and a child's time outside its parent's interval does not count.
// Spans must be in id order with ids 1..n, as a Recorder produces them.
func SelfTimes(spans []Span) ([]int64, error) {
	children := make([][]int32, len(spans)+1)
	for _, s := range spans {
		if s.Parent < 0 || int(s.Parent) > len(spans) || s.Parent == s.ID {
			return nil, fmt.Errorf("span %d: bad parent %d", s.ID, s.Parent)
		}
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[s.ID] {
			ch := spans[c-1]
			lo, hi := max(ch.Start, s.Start), min(ch.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out, nil
}

// selfByName sums self time per span name over the spans that keep(span)
// accepts.
func selfByName(spans []Span, self []int64, keep func(Span) bool) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		if keep == nil || keep(s) {
			out[s.Name] += self[i]
		}
	}
	return out
}
