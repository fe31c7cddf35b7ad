package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval. Spans of one update, query or walk share a
// trace number; a child names its parent. Times are nanoseconds since the
// run's first send.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how timed runs skip tracing.
type tracer struct {
	spans  []span
	traces int
}

// root opens a new trace and returns its root span's ID.
func (t *tracer) root(name string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.traces++
	return t.add(t.traces, 0, name, start, end)
}

// child records a span under parent, in parent's trace.
func (t *tracer) child(parent int, name string, start, end int64) int {
	if t == nil {
		return 0
	}
	return t.add(t.spans[parent-1].Trace, parent, name, start, end)
}

func (t *tracer) add(trace, parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(workload string, seed int64) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
