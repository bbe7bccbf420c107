package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

// span is one timed call. Parent is the enclosing span's index (-1 for
// a root); Trace groups the spans of one epoch, pass or poll.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, trace int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.start))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the duration of every span named name, in
// nanoseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// perTrace returns, for each trace id holding spans named name, the
// summed duration of those spans in nanoseconds.
func (t *tracer) perTrace(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[int64]float64{}
	var order []int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] += float64(s.End - s.Start)
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = byTrace[id]
	}
	return out
}

// selfTimes returns, per span name, the mean self time in microseconds:
// a span's duration minus the time its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	total := map[string]int64{}
	count := map[string]int64{}
	for i, s := range t.spans {
		total[s.Name] += s.End - s.Start - children[i]
		count[s.Name]++
	}
	out := make(map[string]float64, len(total))
	for name, ns := range total {
		out[name] = float64(ns) / float64(count[name]) / 1e3
	}
	return out
}

// finishTrace writes the run's spans to <out>/<workload>.trace.jsonl and
// records their self times in rep.
func finishTrace(cfg runConfig, tr *tracer, rep *report) error {
	rep.selfUS = tr.selfTimes()
	return tr.write(filepath.Join(cfg.out, cfg.workload+".trace.jsonl"))
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
