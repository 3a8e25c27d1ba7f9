package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// recorder counts the events handed out inside the measured window and
// samples their latency. The window bounds are set by the coordinating
// goroutine; observe runs on whichever goroutine hands events out (one
// at a time: the consumer loop, or the checker's lock).
type recorder struct {
	winStart atomic.Int64
	winEnd   atomic.Int64
	// stride thins latency sampling: one event in stride is sampled.
	stride uint64
	// events is read by the coordinator once a second.
	events atomic.Int64
	latMs  []float64 // in hand-out order
}

func newRecorder(stride uint64) *recorder {
	r := &recorder{stride: stride}
	r.winStart.Store(math.MaxInt64)
	r.winEnd.Store(math.MaxInt64)
	return r
}

// observe accounts one event handed out at now with due time due.
func (r *recorder) observe(now int64, seq uint64, due int64) {
	if now < r.winStart.Load() || now >= r.winEnd.Load() {
		return
	}
	r.events.Add(1)
	if seq%r.stride == 0 {
		r.latMs = append(r.latMs, float64(now-due)/1e6)
	}
}

// sample is the process's running totals at one instant of the window.
type sample struct {
	ns      int64
	cpuS    float64
	mallocs uint64
	events  int64 // handed out inside the window so far
}

// windowCost is what the measured window cost, process-wide. Throughput
// and CPU per event are medians over the window's one-second intervals,
// so that a second disturbed from outside (the host) does not move
// them; allocations are counted, not timed, and taken over the whole
// window.
type windowCost struct {
	events         int64
	eventsPerS     float64
	cpuUsPerEvent  float64
	allocsPerEvent float64
	gcCycles       float64
	gcPauseMs      float64
}

func takeSample(events int64) (sample, runtime.MemStats) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sample{ns: nowNs(), cpuS: cpuSeconds(), mallocs: m.Mallocs, events: events}, m
}

// measureWindow sleeps through a window of length d. Every 100 ms it
// calls tick (when non-nil); once a second it samples the process
// totals and events(), the events handed out so far.
func measureWindow(d time.Duration, events func() int64, tick func()) (c windowCost) {
	first, m0 := takeSample(events())
	samples := []sample{first}
	deadline := first.ns + int64(d)
	for {
		left := deadline - nowNs()
		if left <= 0 {
			break
		}
		if left > int64(100*time.Millisecond) {
			left = int64(100 * time.Millisecond)
		}
		time.Sleep(time.Duration(left))
		if tick != nil {
			tick()
		}
		if now := nowNs(); now-samples[len(samples)-1].ns >= int64(time.Second) && deadline-now >= int64(time.Second/2) {
			s, _ := takeSample(events())
			samples = append(samples, s)
		}
	}
	last, m1 := takeSample(events())
	samples = append(samples, last)

	var rate, cpu []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if n := float64(b.events - a.events); n > 0 {
			rate = append(rate, n/(float64(b.ns-a.ns)/1e9))
			cpu = append(cpu, (b.cpuS-a.cpuS)*1e6/n)
		}
	}
	c.events = last.events - first.events
	c.eventsPerS, c.cpuUsPerEvent = median(rate), median(cpu)
	if c.events > 0 {
		c.allocsPerEvent = float64(last.mallocs-first.mallocs) / float64(c.events)
	}
	c.gcCycles = float64(m1.NumGC - m0.NumGC)
	c.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return c
}

// residentGoroutines is the goroutine count at a quiet moment: the
// median of eleven samples 5 ms apart, which short-lived goroutines
// (per-bucket produce calls, the gap between two long polls) do not
// move.
func residentGoroutines() int {
	var samples []float64
	for i := 0; i < 11; i++ {
		time.Sleep(5 * time.Millisecond)
		samples = append(samples, float64(runtime.NumGoroutine()))
	}
	return int(median(samples))
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// latencyChunks is the most chunks a recorder's samples are cut into.
const latencyChunks = 4

// latency returns the median and the 99th percentile of the sampled
// latencies. Each recorder's samples are cut, in hand-out order, into up
// to latencyChunks equal chunks, each large enough to have ten samples
// beyond its 99th percentile (supportedPercentile); both percentiles
// are taken per chunk and the medians over all chunks are reported, so
// one disturbed stretch of the window does not set the tail. A recorder
// too small for one chunk adds nothing, unless lenient is set (the short
// runs of traced mode, whose latencies only feed the tracing-overhead
// figure): its samples then form one chunk. The run is invalid when no
// recorder adds a chunk.
func latency(lenient bool, recs ...*recorder) (p50, p99 float64, err error) {
	var p50s, p99s []float64
	total := 0
	for _, r := range recs {
		total += len(r.latMs)
		k := latencyChunks
		for k > 0 && supportedPercentile(len(r.latMs)/k) < 99 {
			k--
		}
		if k == 0 && lenient && len(r.latMs) > 0 {
			k = 1
		}
		for i := 0; i < k; i++ {
			chunk := sorted(r.latMs[i*len(r.latMs)/k : (i+1)*len(r.latMs)/k])
			p50s = append(p50s, percentile(chunk, 50))
			p99s = append(p99s, percentile(chunk, 99))
		}
	}
	if len(p99s) == 0 {
		return 0, 0, fmt.Errorf("only %d latency samples: too few for a 99th percentile", total)
	}
	return median(p50s), median(p99s), nil
}

// watch is the bookkeeping around a measured window that does not
// depend on the shape of the load: process cost, the misroute baseline
// and, in a traced run, the OpStats scrape, the relay byte counts, the
// follower-lag sampler and the metadata round trip.
type watch struct {
	tr *tracer
	// short: see env.short.
	short  bool
	tc     *testCluster
	via    *wire.Client // the client the scrapes go through
	topics []topicSpec
	recs   []*recorder // what the window's load hands events out through

	// baseMisroutes is the misroute count at window open: follower
	// fetch loops that start before the topic exists can misroute once
	// while the cluster comes up, which is not the window's business.
	baseMisroutes int64

	baseline       *stats
	baseUp, baseDn int64
	delta          *stats
	bytesUp        int64
	bytesDn        int64
	metadataRTTUs  float64
	stopLag        chan struct{}
	lagDone        chan struct{}
}

// measure runs the measured window: it takes the traced run's
// baselines, opens the recorders, sleeps through the window sampling
// the process (measureWindow), closes the recorders and
// takes the traced run's closing scrape.
func (w *watch) measure(d time.Duration, tick func()) (c windowCost, err error) {
	if w.tr != nil {
		if w.baseline, err = scrape(w.tc, w.via); err != nil {
			return c, err
		}
		w.baseUp, w.baseDn = w.tc.relayBytes()
		if w.metadataRTTUs, err = metadataRTT(w.via); err != nil {
			return c, err
		}
		w.stopLag, w.lagDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(w.lagDone)
			w.tr.sampleLag(w.tc.fabric, w.topics, w.stopLag)
		}()
	}
	w.baseMisroutes = w.tc.net.Misroutes()
	// The recorders open a moment before the first sample and close a
	// moment after the last, so every sampled interval is fully counted.
	open := nowNs()
	for _, r := range w.recs {
		r.winStart.Store(open)
	}
	events := func() (n int64) {
		for _, r := range w.recs {
			n += r.events.Load()
		}
		return n
	}
	c = measureWindow(d, events, tick)
	end := nowNs()
	for _, r := range w.recs {
		r.winEnd.Store(end)
	}
	if w.tr != nil {
		up, dn := w.tc.relayBytes()
		w.bytesUp, w.bytesDn = up-w.baseUp, dn-w.baseDn
		now, err := scrape(w.tc, w.via)
		if err != nil {
			return c, err
		}
		w.delta = now.since(w.baseline)
	}
	return c, nil
}

// stop ends the lag sampler, if one runs.
func (w *watch) stop() {
	if w.stopLag != nil {
		close(w.stopLag)
		<-w.lagDone
		w.stopLag = nil
	}
}

// clusterChecks fails the run on a misroute since the window opened or
// an under-replicated partition at quiescence.
func (w *watch) clusterChecks(chk *checker) {
	if n := w.tc.net.Misroutes() - w.baseMisroutes; n != 0 {
		chk.fail(n, "%d requests misrouted since the window opened", n)
	}
	if n := underReplicated(w.tc.fabric); n != 0 {
		chk.fail(n, "%d under-replicated partitions at quiescence", n)
	}
}

// underReplicated reads the tracker's gauge of partitions whose ISR is
// smaller than their replica set.
func underReplicated(f *broker.Fabric) int64 {
	return f.Metrics.Gauge("replication.under_replicated").Value()
}

// windowResult is what a workload measured around its window.
type windowResult struct {
	cost windowCost
	// goroutines is the resident goroutine count and heapMB the live
	// heap at the end of set-up.
	goroutines int
	heapMB     float64
	clients    int
	diskBytes  int64
	userBytes  int64
}

// e2eValues turns a window's measurements into the end-to-end metrics
// (all but setup_s, which the harness adds).
func (w *watch) e2eValues(r windowResult) (map[string]float64, error) {
	if r.cost.events == 0 {
		return nil, fmt.Errorf("no events were handed out inside the measured window")
	}
	p50, p99, err := latency(w.short, w.recs...)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"events_per_s":             r.cost.eventsPerS,
		"e2e_p50_ms":               p50,
		"e2e_p99_ms":               p99,
		"allocs_per_event":         r.cost.allocsPerEvent,
		"heap_live_mb":             r.heapMB,
		"disk_bytes_per_user_byte": float64(r.diskBytes) / float64(r.userBytes),
		"goroutines_per_conn":      float64(r.goroutines-w.tc.goroutines) / float64(r.clients),
	}, nil
}

// finish assembles the outcome once the run has quiesced and been
// checked: no metric comes out of a run with a failure. A traced run
// adds the per-layer metrics of the window, and extra on top: the ones
// only this workload has.
func (w *watch) finish(o *ops, chk *checker, r windowResult, extra map[string]float64) (*outcome, error) {
	_, failed, first := chk.result()
	out := &outcome{
		attempted: o.attempted.Load(),
		failed:    o.failed.Load() + failed,
		first:     first,
	}
	if out.first == "" {
		o.mu.Lock()
		out.first = o.first
		o.mu.Unlock()
	}
	if out.failed > 0 {
		return out, nil
	}
	vals, err := w.e2eValues(r)
	if err != nil {
		return nil, err
	}
	if w.tr != nil {
		for k, v := range w.layerValues(r.cost) {
			vals[k] = v
		}
		for k, v := range extra {
			vals[k] = v
		}
	}
	out.values = vals
	return out, nil
}
