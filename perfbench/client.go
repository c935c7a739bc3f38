package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// outcome is one request as the client saw it.
type outcome struct {
	Req     Request
	Status  int    // HTTP status, 0 on a transport error
	Err     string // transport error or non-2xx body
	Latency time.Duration
	Done    time.Duration // completion time since the phase started

	// Read responses.
	RowCount   int
	Digest     string
	DurationUs int64
	Signature  string

	// Update acknowledgements.
	Generation uint64
	Ack        ackOut
}

func (o *outcome) failed() bool { return o.Status < 200 || o.Status > 299 }

// readResponse and updateResponse are the fields of the service's JSON
// replies the benchmark checks.
type readResponse struct {
	Rows          [][]string `json:"rows"`
	RowCount      int        `json:"row_count"`
	DurationUs    int64      `json:"duration_us"`
	PlanSignature string     `json:"plan_signature"`
}

type updateResponse struct {
	Generation uint64 `json:"generation"`
	Triples    int    `json:"triples"`
	Inserted   int    `json:"inserted"`
	Deleted    int    `json:"deleted"`
	Compacted  bool   `json:"compacted"`
}

// requestBody renders the JSON body served expects for r.
func requestBody(r Request, texts map[string]string) (path string, body []byte, err error) {
	switch r.Kind {
	case "execute":
		body, err = json.Marshal(map[string]any{"name": r.Template, "bindings": r.Bindings})
		return "/execute", body, err
	case "query":
		body, err = json.Marshal(map[string]any{"query": texts[r.Template], "bindings": r.Bindings})
		return "/query", body, err
	case "update":
		body, err = json.Marshal(map[string]string{"update": r.Update})
		return "/update", body, err
	}
	return "", nil, fmt.Errorf("request %d: unknown kind %q", r.ID, r.Kind)
}

// drive sends each list over its own connection in a closed loop: a client
// sends its next request only after the previous reply has been read, and
// after a further think time. It returns the outcomes per list and the
// wall time from the first send to the last reply.
func drive(s *server, lists [][]Request, texts map[string]string, think time.Duration) ([][]outcome, time.Duration, error) {
	type prepared struct {
		path string
		body []byte
	}
	bodies := make([][]prepared, len(lists))
	for c, l := range lists {
		bodies[c] = make([]prepared, len(l))
		for i, r := range l {
			p, b, err := requestBody(r, texts)
			if err != nil {
				return nil, 0, err
			}
			bodies[c][i] = prepared{s.base + p, b}
		}
	}
	out := make([][]outcome, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lists {
		out[c] = make([]outcome, len(lists[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, r := range lists[c] {
				if i > 0 && think > 0 {
					time.Sleep(think)
				}
				out[c][i] = send(s.client, r, bodies[c][i].path, bodies[c][i].body)
				out[c][i].Done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start), nil
}

// send performs one request and decodes its reply. Latency covers sending
// the request and reading the whole body; decoding and digesting the rows
// happen after the clock stops.
func send(hc *http.Client, r Request, url string, body []byte) outcome {
	o := outcome{Req: r}
	t0 := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Latency = time.Since(t0)
		o.Err = err.Error()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Latency = time.Since(t0)
	o.Status = resp.StatusCode
	if err != nil {
		o.Status, o.Err = 0, err.Error()
		return o
	}
	if o.failed() {
		o.Err = strings.TrimSpace(string(data))
		return o
	}
	if r.Kind == "update" {
		var u updateResponse
		if err := json.Unmarshal(data, &u); err != nil {
			o.Status, o.Err = 0, "decode update reply: "+err.Error()
			return o
		}
		o.Generation = u.Generation
		o.Ack = ackOut{Inserted: u.Inserted, Deleted: u.Deleted, Triples: u.Triples, Compacted: u.Compacted}
		return o
	}
	var rr readResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		o.Status, o.Err = 0, "decode read reply: "+err.Error()
		return o
	}
	o.RowCount, o.Digest = rr.RowCount, rowsDigest(rr.Rows)
	o.DurationUs, o.Signature = rr.DurationUs, rr.PlanSignature
	return o
}

// rowsDigest is an order-independent digest of result rows: the rows are
// rendered, sorted and hashed, so engines that order unordered results
// differently still agree.
func rowsDigest(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
