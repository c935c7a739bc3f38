package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/service"
	"repro/internal/store"
)

// check verifies served's answers. Every request must succeed: the
// workloads are chosen so that none fails, and a failed request must not
// pass as a faster one. Reads of read-only phases are compared one by one
// with the untraced in-process replay; update acknowledgements must follow
// the expected triple counts; after a timed phase with updates,
// verification reads are compared with an in-process service that applied
// the same updates in served's commit order.
func (rs *runState) check(ctx context.Context, st *store.Store) error {
	var updates []outcome
	for _, p := range checkFailures(append(append([]outcome(nil), rs.timed...), rs.tail...)) {
		rs.problem("%s", p)
	}
	for _, o := range append(append([]outcome(nil), rs.timed...), rs.tail...) {
		if o.Req.Kind == "update" && !o.failed() {
			updates = append(updates, o)
		}
	}
	for _, p := range checkAcks(updates, rs.ds.Triples) {
		rs.problem("%s", p)
	}
	if rs.w.UpdateEvery > 0 {
		return rs.checkVerify(ctx, updates)
	}
	rp, err := newReplayer(ctx, st, rs.opts, rs.compactAt, rs.w.Templates, nil)
	if err != nil {
		return err
	}
	want := map[string]readOut{}
	for _, o := range rs.timed {
		if o.failed() || o.Req.Kind == "update" {
			continue
		}
		key := readKey(o.Req)
		r, ok := want[key]
		if !ok {
			if r, err = rp.read(o.Req); err != nil {
				return fmt.Errorf("replay request %d: %w", o.Req.ID, err)
			}
			want[key] = r
		}
		if err := checkRead(o, r); err != nil {
			rs.problem("%v", err)
		}
	}
	return nil
}

// maxFailureReports caps how many failed requests are named one by one.
const maxFailureReports = 5

// checkFailures names the failed requests among outs (non-2xx, 429
// included, or transport errors), the first few one by one.
func checkFailures(outs []outcome) []string {
	var problems []string
	n := 0
	for _, o := range outs {
		if !o.failed() {
			continue
		}
		if n++; n <= maxFailureReports {
			problems = append(problems, fmt.Sprintf("request %d (%s %s) failed: status %d: %s",
				o.Req.ID, o.Req.Kind, o.Req.Template, o.Status, o.Err))
		}
	}
	if n > maxFailureReports {
		problems = append(problems, fmt.Sprintf("%d requests failed in all", n))
	}
	return problems
}

// readKey identifies a read by template and bindings; on an unchanging
// store equal keys must give equal answers.
func readKey(r Request) string {
	keys := make([]string, 0, len(r.Bindings))
	for k := range r.Bindings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.Template)
	for _, k := range keys {
		b.WriteString("\x1f" + k + "=" + r.Bindings[k])
	}
	return b.String()
}

// checkRead compares one served reply with the replay of the same request.
func checkRead(o outcome, want readOut) error {
	if o.RowCount != want.RowCount {
		return fmt.Errorf("request %d (%s %s): row_count %d, replay %d", o.Req.ID, o.Req.Template, o.Req.Class, o.RowCount, want.RowCount)
	}
	if o.Digest != want.Digest {
		return fmt.Errorf("request %d (%s %s): rows digest %s, replay %s", o.Req.ID, o.Req.Template, o.Req.Class, o.Digest, want.Digest)
	}
	return nil
}

// checkAcks checks update acknowledgements. Every ack must name the triple
// counts its request carried; in commit (generation) order, the store size
// must follow base ± each update's count, since inserts add new entities
// and deletes remove an earlier insert of the same client.
func checkAcks(acks []outcome, base int) []string {
	sorted := append([]outcome(nil), acks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Generation < sorted[j].Generation })
	var problems []string
	size := base
	var last uint64
	for _, o := range sorted {
		if o.Ack.Inserted != o.Req.Inserts || o.Ack.Deleted != o.Req.Deletes {
			problems = append(problems, fmt.Sprintf("update %d: ack names +%d -%d triples, request carried +%d -%d",
				o.Req.ID, o.Ack.Inserted, o.Ack.Deleted, o.Req.Inserts, o.Req.Deletes))
		}
		if o.Generation == last {
			problems = append(problems, fmt.Sprintf("update %d: generation %d published twice", o.Req.ID, o.Generation))
		}
		last = o.Generation
		size += o.Req.Inserts - o.Req.Deletes
		if o.Ack.Triples != size {
			problems = append(problems, fmt.Sprintf("update %d (generation %d): store holds %d triples, expected %d",
				o.Req.ID, o.Generation, o.Ack.Triples, size))
		}
	}
	return problems
}

// checkVerify applies served's acknowledged updates, in commit order, to an
// in-process service over the same data as one unsharded snapshot, then
// compares the verification reads and the final store state. Answers do
// not depend on the shard count or on when compactions ran, and an
// unsharded store without compactions applies the updates in a fraction
// of the time four shards take, which keeps the check short.
func (rs *runState) checkVerify(ctx context.Context, updates []outcome) error {
	src, err := store.LoadAnyMapped(rs.ds.Snap)
	if err != nil {
		return err
	}
	defer release(src)
	opts := service.DefaultOptions()
	opts.Exec = rs.opts
	svc := service.New(src, rs.ds.Snap, opts)
	sorted := append([]outcome(nil), updates...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Generation < sorted[j].Generation })
	// Only the data is compared, not where it lives: aggregate reads encode
	// their result values into the shared dictionary, so the IDs of new
	// subjects, and with them shard placement, pending sizes and compaction
	// points, depend on how reads interleaved with the updates.
	for _, o := range sorted {
		res, err := svc.Update(ctx, o.Req.Update)
		if err != nil {
			return fmt.Errorf("in-process update %d: %w", o.Req.ID, err)
		}
		if res.Triples != o.Ack.Triples {
			rs.problem("update %d: served acked %d triples, in-process service %d", o.Req.ID, o.Ack.Triples, res.Triples)
		}
	}
	for _, t := range rs.w.Templates {
		if _, err := svc.Prepare(t.Name, t.Text); err != nil {
			return err
		}
	}
	for _, o := range rs.verify {
		if o.failed() {
			rs.problem("verification read %d failed: %d %s", o.Req.ID, o.Status, o.Err)
			continue
		}
		p, _ := svc.Lookup(o.Req.Template)
		b, err := parseWire(o.Req.Bindings)
		if err != nil {
			return err
		}
		res, err := svc.Execute(ctx, p, b)
		if err != nil {
			return fmt.Errorf("in-process verification read %d: %w", o.Req.ID, err)
		}
		want := readOut{RowCount: len(res.Result.Rows), Digest: rowsDigest(res.DecodedRows())}
		res.Close()
		if err := checkRead(o, want); err != nil {
			rs.problem("verification %v", err)
		}
	}
	if got := svc.Stats().Store; got.Triples != rs.sEnd.Store.Triples {
		rs.problem("final store: served %d triples, in-process service %d", rs.sEnd.Store.Triples, got.Triples)
	}
	return nil
}
