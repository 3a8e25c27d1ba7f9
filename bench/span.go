package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the id (index+1) of the span that caused
// it, 0 for a root; spans of one batch share TraceID.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	TraceID int64  `json:"trace_id"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is the untraced run.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(s span) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans)
}

// reserve records a span whose end is not known yet, so children can
// name it as parent; finish closes it.
func (l *spanLog) reserve(name string, traceID int64) int {
	return l.add(span{Name: name, StartNs: nowNs(), TraceID: traceID})
}

func (l *spanLog) finish(id int) {
	if l == nil || id == 0 {
		return
	}
	end := nowNs()
	l.mu.Lock()
	l.spans[id-1].EndNs = end
	l.mu.Unlock()
}

// write dumps the spans as one JSON array.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover: overlapping children count
// once, and a child's time outside the parent's interval does not count.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNs - s.StartNs - covered(s, spans, children[i])
	}
	return out
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent span, spans []span, kids []int) int64 {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
	var total int64
	cursor := parent.StartNs
	for _, k := range kids {
		lo, hi := spans[k].StartNs, spans[k].EndNs
		if lo < cursor {
			lo = cursor
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// selfTimesOf returns the self times (µs) of the spans called name.
func selfTimesOf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// durationsOf returns the durations (µs) of the spans called name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}
