package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Group is shared by the spans of one cell run or one
// offered op; Due, when nonzero, is when a scheduled op was due; Tag
// is the call's outcome where it has one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Due    int64  `json:"due_ns,omitempty"`
	Tag    string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is then a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, group string, parent int) int {
	return t.open(name, group, parent, time.Now(), time.Time{})
}

// open opens a span that started at start; due, when not zero, is when
// the op was scheduled to start.
func (t *tracer) open(name, group string, parent int, start, due time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Group: group, Start: int64(start.Sub(t.t0))}
	if !due.IsZero() {
		s.Due = int64(due.Sub(t.t0))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id now, tagging it with an outcome when tag is given.
func (t *tracer) end(id int, tag ...string) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if len(tag) > 0 {
		t.spans[id-1].Tag = tag[0]
	}
}

// named returns the finished spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// write stores the run's report and the spans as JSON at path.
func (t *tracer) write(path string, report any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Report any    `json:"report"`
		Spans  []span `json:"spans"`
	}{report, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
