package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.  Spans of one op share its op id; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int64
	tid        int
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// the untraced run: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, start, end time.Time, parent int, op int64, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op, tid: tid})
	return len(t.spans) - 1
}

// setEnd sets the end of a span recorded before its end was known.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
}

// ladderRow is one span name's totals.
type ladderRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// ladder sums each span name's total and self time.  Self time is a
// span's duration minus the part of it that its child spans cover.
func (t *tracer) ladder() []ladderRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*ladderRow{}
	for i, s := range t.spans {
		dur := s.end.Sub(s.start)
		covered := coveredBy(s, t.spans, children[i])
		r := rows[s.name]
		if r == nil {
			r = &ladderRow{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalS += dur.Seconds()
		r.SelfS += (dur - covered).Seconds()
	}
	out := make([]ladderRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredBy returns how much of parent's interval the union of the
// given child spans covers.
func coveredBy(parent span, all []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].start, all[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				sum += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		sum += curB.Sub(curA)
	}
	return sum
}

// printLadder writes the self-time ladder as a table, per op span.
func printLadder(w io.Writer, label string, rows []ladderRow) {
	ops := 1
	for _, r := range rows {
		if r.Name == "op" && r.Count > 0 {
			ops = r.Count
		}
	}
	fmt.Fprintf(w, "ladder %s (%d ops): span, count, total ms/op, self ms/op\n", label, ops)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.4f %12.4f\n", r.Name, r.Count,
			r.TotalS*1e3/float64(ops), r.SelfS*1e3/float64(ops))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which Perfetto and
// chrome://tracing load directly.  meta lands in "otherData".
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		events[i] = event{
			Name: s.name,
			Cat:  layer,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
