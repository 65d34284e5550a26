package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Req    int64  `json:"req"`    // request id; spans of one request share it (0: none)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, req int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) timed(name string, parent int64, fn func()) float64 {
	_, end := t.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	return d
}

// layerTime is one span name's aggregate: total and self time.
type layerTime struct {
	Name  string
	Count int
	Total float64 // seconds
	Self  float64 // seconds not covered by child spans
}

// selfTimes computes each span name's self time: a span's duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var tot, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			tot += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		tot += curHi - curLo
	}
	return tot
}

// finish prints the per-layer self-time table and writes the spans to
// .bench_out in the working directory.
func (t *tracer) finish(env envStamp) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, lt := range selfTimes(spans) {
		fmt.Printf("span %-28s count=%-6d total_s=%-12.6g self_s=%.6g\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-%d.json", env.Workload, env.Seed))
	b, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}
