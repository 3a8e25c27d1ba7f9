package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/wire"
)

// tracer is the state of a traced run: the span log, the counts the
// transport decorators keep, and the once-a-second samples.
type tracer struct {
	log *spanLog

	mu            sync.Mutex
	produceEvents []float64 // events per Transport.Produce
	pollEvents    []float64 // events per Consumer.Poll
	emptyPolls    int64
	followerLag   int64 // max over samples of leader log end - follower log end
}

func newTracer() *tracer { return &tracer{log: &spanLog{}} }

// tracedTransport decorates a wire.Client as the client.Transport of
// one producer or consumer: it records a span around every produce and
// buffered fetch, parented to the span its load loop currently has
// open. Embedding keeps every other Transport method, and the
// BufferedFetcher / WaitFetcher extensions the consumer probes for.
type tracedTransport struct {
	*wire.Client
	t *tracer
	// parent is the id of the load loop's open span; seq numbers the
	// loop's batches (produce batches or polls) and is the trace id.
	parent atomic.Int64
	seq    atomic.Int64
}

// transport returns what the SDK should speak through: c itself when
// the run is untraced (tt is then nil), else c decorated for tracing.
func (t *tracer) transport(c *wire.Client) (tr client.Transport, tt *tracedTransport) {
	if t == nil {
		return c, nil
	}
	tt = &tracedTransport{Client: c, t: t}
	return tt, tt
}

// poll is Consumer.Poll, under a client.poll span when tt is non-nil.
func poll(cons *client.Consumer, tt *tracedTransport) ([]event.Event, error) {
	if tt == nil {
		return cons.Poll(0)
	}
	id := tt.begin("client.poll")
	evs, err := cons.Poll(0)
	tt.end(id)
	tt.polled(len(evs))
	return evs, err
}

// consumerConfig is how every workload's consumers are configured.
var consumerConfig = client.ConsumerConfig{PollWait: 100 * time.Millisecond, Start: client.StartEarliest}

// begin opens the load loop's next batch span.
func (tt *tracedTransport) begin(name string) int {
	id := tt.t.log.reserve(name, tt.seq.Add(1))
	tt.parent.Store(int64(id))
	return id
}

func (tt *tracedTransport) end(id int) { tt.t.log.finish(id) }

func (tt *tracedTransport) child(name string, start int64) {
	tt.t.log.add(span{Name: name, StartNs: start, EndNs: nowNs(), Parent: int(tt.parent.Load()), TraceID: tt.seq.Load()})
}

func (tt *tracedTransport) polled(n int) {
	tt.t.mu.Lock()
	tt.t.pollEvents = append(tt.t.pollEvents, float64(n))
	if n == 0 {
		tt.t.emptyPolls++
	}
	tt.t.mu.Unlock()
}

// Produce implements client.Transport.
func (tt *tracedTransport) Produce(identity, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	start := nowNs()
	off, err := tt.Client.Produce(identity, topic, partition, evs, acks)
	tt.child("wire.produce", start)
	tt.t.mu.Lock()
	tt.t.produceEvents = append(tt.t.produceEvents, float64(len(evs)))
	tt.t.mu.Unlock()
	return off, err
}

// FetchBuffered implements client.BufferedFetcher.
func (tt *tracedTransport) FetchBuffered(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	start := nowNs()
	res, err := tt.Client.FetchBuffered(identity, topic, partition, offset, maxEvents, maxBytes, buf)
	tt.child("wire.fetch", start)
	return res, err
}

// FetchBufferedWait implements client.WaitFetcher.
func (tt *tracedTransport) FetchBufferedWait(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	start := nowNs()
	res, err := tt.Client.FetchBufferedWait(identity, topic, partition, offset, maxEvents, maxBytes, wait, buf)
	tt.child("wire.fetch_wait", start)
	return res, err
}

// stats is one OpStats scrape of every broker: the fabric registry is
// shared by the brokers of a process and read once, the wire servers'
// registries are per broker and summed.
type stats struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]hist
}

func scrape(tc *testCluster, c *wire.Client) (*stats, error) {
	s := &stats{counters: map[string]int64{}, gauges: map[string]int64{}, hists: map[string]hist{}}
	for i, addr := range tc.net.Addrs() {
		resp, err := c.StatsAt(addr)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", addr, err)
		}
		perBroker := func(name string) bool { return len(name) > 5 && name[:5] == "wire_" }
		for _, e := range resp.Counters {
			if i == 0 || perBroker(e.Name) {
				s.counters[e.Name] += e.Value
			}
		}
		for _, e := range resp.Gauges {
			if i == 0 || perBroker(e.Name) {
				s.gauges[e.Name] += e.Value
			}
		}
		for j := range resp.Hists {
			h := &resp.Hists[j]
			if i == 0 || perBroker(h.Name) {
				if s.hists[h.Name] == nil {
					s.hists[h.Name] = hist{}
				}
				s.hists[h.Name].add(h)
			}
		}
	}
	return s, nil
}

// since returns the growth of the counters and histograms over base;
// gauges keep their current value.
func (s *stats) since(base *stats) *stats {
	d := &stats{counters: map[string]int64{}, gauges: s.gauges, hists: map[string]hist{}}
	for n, v := range s.counters {
		d.counters[n] = v - base.counters[n]
	}
	for n, h := range s.hists {
		d.hists[n] = h.minus(base.hists[n])
	}
	return d
}

// sampleLag runs until stop closes, sampling once a second how far
// every follower trails its leader.
func (t *tracer) sampleLag(f *broker.Fabric, topics []topicSpec, stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		var worst int64
		for _, ts := range topics {
			for p := 0; p < ts.partitions; p++ {
				st, ok := f.ReplicaStatusFor(ts.name, p)
				if !ok {
					continue
				}
				for _, fo := range st.Followers {
					if lag := st.LogEnd - fo.LogEnd; lag > worst {
						worst = lag
					}
				}
			}
		}
		t.mu.Lock()
		if worst > t.followerLag {
			t.followerLag = worst
		}
		t.mu.Unlock()
	}
}

// metadataRTT is the median round trip of five cluster metadata
// requests, in microseconds.
func metadataRTT(c *wire.Client) (float64, error) {
	var us []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := c.ClusterMetadata(); err != nil {
			return 0, fmt.Errorf("metadata: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// layerValues reads the per-layer metrics a traced window yields: the
// bench-side spans, the decorators' counts, the OpStats growth, the
// relay byte counts and the samplers.
func (w *watch) layerValues(cost windowCost) map[string]float64 {
	t, d := w.tr, w.delta
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log.mu.Lock()
	spans := t.log.spans
	t.log.mu.Unlock()

	events := float64(cost.events)
	perK := func(counter string) float64 {
		if events == 0 {
			return 0
		}
		return float64(d.counters[counter]) / events * 1000
	}
	perEvent := func(n int64) float64 {
		if events == 0 {
			return 0
		}
		return float64(n) / events
	}
	us := func(h string, q float64) float64 { return d.hists[h].quantile(q) / 1e3 }
	rtt := sorted(durationsOf(spans, "wire.produce"))
	emptyRatio := 0.0
	if len(t.pollEvents) > 0 {
		emptyRatio = float64(t.emptyPolls) / float64(len(t.pollEvents))
	}
	return map[string]float64{
		"wire.produce_rtt_p50_us":               percentile(rtt, 50),
		"wire.produce_rtt_p99_us":               percentile(rtt, 99),
		"wire.fetch_wait_p50_us":                median(durationsOf(spans, "wire.fetch_wait")),
		"wire.server_produce_p50_us":            us("wire_produce_ns", 0.5),
		"wire.server_fetch_p50_us":              us("wire_fetch_ns", 0.5),
		"wire.session_batch_events_p50":         d.hists["wire_session_batch_events"].quantile(0.5),
		"wire.session_pump_parks_per_kevent":    perK("wire_session_pump_parks"),
		"wire.session_credit_stalls_per_kevent": perK("wire_session_credit_stalls"),
		"wire.bytes_up_per_event":               perEvent(w.bytesUp),
		"wire.bytes_down_per_event":             perEvent(w.bytesDn),
		"wire.misroutes":                        float64(w.tc.net.Misroutes() - w.baseMisroutes),

		"client.producer_flush_self_us":    median(selfTimesOf(spans, "client.produce_batch")),
		"client.consumer_poll_self_us":     median(selfTimesOf(spans, "client.poll")),
		"client.producer_batch_events_p50": median(t.produceEvents),
		"client.poll_events_p50":           median(t.pollEvents),
		"client.empty_polls_ratio":         emptyRatio,

		"broker.produce_p50_us":           us("fabric.produce_ns", 0.5),
		"broker.fetch_p50_us":             us("fabric.fetch_ns", 0.5),
		"broker.commit_wait_p50_us":       us("fabric.commit_wait_ns", 0.5),
		"broker.commit_wait_p99_us":       us("fabric.commit_wait_ns", 0.99),
		"broker.produce_batch_events_p50": d.hists["fabric.produce_batch_events"].quantile(0.5),

		"eventlog.append_p50_us": us("eventlog.append_ns", 0.5),

		"replication.wait_committed_p50_us":   us("replication.wait_committed_ns", 0.5),
		"replication.wait_committed_p99_us":   us("replication.wait_committed_ns", 0.99),
		"replication.fetch_rtt_p50_us":        us("replication.fetch_rtt_ns", 0.5),
		"replication.fetch_batch_events_p50":  d.hists["replication.fetch_batch_events"].quantile(0.5),
		"replication.hw_advance_events_p50":   d.hists["replication.hw_advance_events"].quantile(0.5),
		"replication.follower_lag_events_max": float64(t.followerLag),
		"replication.under_replicated_end":    float64(underReplicated(w.tc.fabric)),

		"clusternet.serve_s":      w.tc.serveS,
		"cluster.metadata_rtt_us": w.metadataRTTUs,

		// Overwritten by the workloads that have triggers or a paced
		// generator; 0 on the others.
		"trigger.events_per_invocation": 0,
		"trigger.filtered_ratio":        0,
		"trigger.failures":              0,
		"trigger.backlog_events_per_s":  0,
		"bench.gen_late_p99_ms":         0,

		"process.cpu_us_per_event": cost.cpuUsPerEvent,

		"bench.gc_cycles":         cost.gcCycles,
		"bench.gc_pause_total_ms": cost.gcPauseMs,
	}
}
