// Package metrics provides the lightweight instrumentation used across
// Octopus: counters, gauges, bucketed histograms with percentile
// queries, and time-series recorders for the figures in the evaluation.
// It stands in for the CloudWatch/Grafana monitoring stack of the paper.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Point is one sample of a time series.
type Point struct {
	T time.Time
	V float64
}

// maxSeriesPoints bounds a Series' retained samples. When the cap is
// reached the series halves itself by dropping every other retained
// point and doubles its keep stride, so memory stays bounded while the
// retained points still span the whole recording — a long-running
// broker degrades resolution instead of leaking.
const maxSeriesPoints = 8192

// Series records a named time series, used to regenerate the figure data
// (queue depth over time, concurrent invocations over time, ...).
// Retention is bounded: past maxSeriesPoints the series downsamples,
// keeping every 2nd, then 4th, ... sample.
type Series struct {
	mu     sync.Mutex
	Name   string
	points []Point
	// stride is the current keep interval (1 = keep everything); skip
	// counts samples dropped since the last kept one.
	stride int
	skip   int
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample, subject to the retention bound.
func (s *Series) Record(t time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stride == 0 {
		s.stride = 1
	}
	s.skip++
	if s.skip < s.stride {
		return
	}
	s.skip = 0
	s.points = append(s.points, Point{T: t, V: v})
	if len(s.points) >= maxSeriesPoints {
		kept := s.points[:0]
		for i := 0; i < len(s.points); i += 2 {
			kept = append(kept, s.points[i])
		}
		s.points = kept
		s.stride *= 2
	}
}

// Points returns a copy of the samples in record order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// MaxValue returns the largest recorded value, or 0 if empty.
func (s *Series) MaxValue() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0.0
	for _, p := range s.points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Registry is a named collection of metrics, one per component instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	bhists   map[string]*BucketHist
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		bhists:   make(map[string]*BucketHist),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// BucketHist returns (creating if needed) the named lock-free bucketed
// histogram. Callers on hot paths resolve the handle once at setup and
// hold it: the lookup takes the registry mutex.
func (r *Registry) BucketHist(name string) *BucketHist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.bhists[name]
	if !ok {
		h = &BucketHist{}
		r.bhists[name] = h
	}
	return h
}

// Snapshot renders all metrics as sorted "name value" lines, in the
// spirit of a Prometheus exposition, for the admin consoles.
func (r *Registry) Snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", n, g.Value()))
	}
	for n, h := range r.bhists {
		s := h.Snapshot()
		lines = append(lines, fmt.Sprintf("bucket_hist %s count=%d p50=%.0f p99=%.0f", n, s.Count, s.Quantile(0.5), s.Quantile(0.99)))
	}
	sort.Strings(lines)
	return lines
}

// NamedValue is one exported counter or gauge.
type NamedValue struct {
	Name  string
	Value int64
}

// NamedBucketHist is one exported bucketed histogram.
type NamedBucketHist struct {
	Name string
	Snap BucketSnapshot
}

// Export is a registry's full content at one point in time — the
// payload behind both the Prometheus endpoint and the wire-level stats
// op. Slices are sorted by name.
type Export struct {
	Counters []NamedValue
	Gauges   []NamedValue
	Hists    []NamedBucketHist
}

// Export captures every metric in the registry. The registry mutex is
// held only while collecting handles; histogram snapshots run outside
// it.
func (r *Registry) Export() Export {
	r.mu.Lock()
	counters := make([]NamedValue, 0, len(r.counters))
	for n, c := range r.counters {
		counters = append(counters, NamedValue{Name: n, Value: c.Value()})
	}
	gauges := make([]NamedValue, 0, len(r.gauges))
	for n, g := range r.gauges {
		gauges = append(gauges, NamedValue{Name: n, Value: g.Value()})
	}
	bh := make([]struct {
		name string
		h    *BucketHist
	}, 0, len(r.bhists))
	for n, h := range r.bhists {
		bh = append(bh, struct {
			name string
			h    *BucketHist
		}{n, h})
	}
	r.mu.Unlock()

	out := Export{Counters: counters, Gauges: gauges}
	for _, e := range bh {
		out.Hists = append(out.Hists, NamedBucketHist{Name: e.name, Snap: e.h.Snapshot()})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Hists, func(i, j int) bool { return out.Hists[i].Name < out.Hists[j].Name })
	return out
}
