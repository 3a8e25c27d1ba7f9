package main

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/trigger"
)

// triggerFsmon is the paper's automation path. Pre-generated
// fsmon.FSEvent.Doc() JSON is produced over the wire into two topics
// watched by pattern-filtered triggers that match one event in four.
// Phase A (the measured window) paces events into "live" and takes
// latency from each event's due time to its hand-out to the trigger's
// action; phase B starts fresh triggers on the "backlog" topic that
// set-up filled and has them work the backlog off, which every run
// checks and a traced run times (trigger.backlog_events_per_s: from one
// process to the next the rate differs by more than any end-to-end bound
// could allow, 610 k to 795 k events/s over ten runs).
type triggerFsmon struct {
	env  *env
	docs [][]byte

	pipe         pipe
	pp           pacedProducer
	live         *trigger.Trigger
	backlogBytes int64   // user bytes of the preloaded backlog
	heapMB       float64 // live heap once the backlog is loaded, before the load starts
	goroutines   int     // resident goroutines at the end of set-up
}

const (
	triggerRate          = 1000
	triggerBacklogEvents = 300_000
	triggerPartitions    = 4
	triggerPattern       = `{"value":{"event_type":["created"]}}`
	triggerLiveTopic     = "live"
	triggerBacklogTopic  = "backlog"
	triggerPreloadBatch  = 500
	// Phase B follows a mostly idle phase A, and on this kind of host the
	// first seconds of full load after idle run slower (a pure CPU loop
	// runs at half speed for its first second; drain rates climb for
	// about three): the first triggerBacklogWarmups drains are not
	// counted. An untraced run, which reports no rate, drains once.
	triggerBacklogWarmups = 6
	triggerBacklogDrains  = 5
)

func newTriggerFsmon(e *env) (workload, error) {
	g := newGenerator(e.seed)
	// The op cycle repeats every four documents, so any multiple of four
	// keeps "doc seq%len is a create iff seq%4 == 0".
	docs, err := g.fsDocs(ringSlots)
	if err != nil {
		return nil, err
	}
	w := &triggerFsmon{env: e, docs: docs}
	w.pipe = pipe{env: e, spec: pipeSpec{
		cluster: clusterSpec{brokers: 3, minISR: 2},
		topics: []topicSpec{
			{name: triggerLiveTopic, partitions: triggerPartitions, rf: 3},
			{name: triggerBacklogTopic, partitions: triggerPartitions, rf: 3},
		},
		acks:     broker.AcksLeader,
		hdrInKey: true,
		stride:   1,
	}}
	hdrs := make([][]byte, ringSlots)
	for i := range hdrs {
		hdrs[i] = make([]byte, hdrLen)
	}
	w.pp = pacedProducer{perSec: triggerRate, hdrInKey: true, bodies: docs, hdrs: hdrs}
	return w, nil
}

func (w *triggerFsmon) setup() error {
	p := &w.pipe
	if err := p.up(); err != nil {
		return err
	}
	if err := w.preload(); err != nil {
		return err
	}
	w.heapMB = heapLiveMB()
	var err error
	w.live, err = w.newTrigger("live", triggerLiveTopic, p.chk, p.rec)
	if err != nil {
		return err
	}
	w.live.Start()
	w.pp.prod, w.pp.ops = p.prod, p.ops
	w.pp.start()
	time.Sleep(w.env.warmup())
	w.goroutines = residentGoroutines()
	return nil
}

// preload fills the backlog topic through wire.Client.Produce, batch b
// to partition b mod 4.
func (w *triggerFsmon) preload() error {
	batch := make([]event.Event, triggerPreloadBatch)
	hdrs := make([]byte, triggerPreloadBatch*hdrLen)
	w.backlogBytes = 0
	for seq := uint64(0); seq < triggerBacklogEvents; seq += triggerPreloadBatch {
		for i := range batch {
			s := seq + uint64(i)
			hdr := hdrs[i*hdrLen : (i+1)*hdrLen]
			body := w.docs[s%uint64(len(w.docs))]
			stamp(hdr, s, 0, body)
			batch[i] = event.Event{Key: hdr, Value: body}
			w.backlogBytes += int64(len(hdr) + len(body))
		}
		part := int(seq / triggerPreloadBatch % triggerPartitions)
		if _, err := w.pipe.clients[0].Produce("", triggerBacklogTopic, part, batch, broker.AcksLeader); err != nil {
			return fmt.Errorf("preload backlog at seq %d: %w", seq, err)
		}
	}
	return nil
}

// newTrigger deploys a two-worker pattern trigger whose action hands
// every matched batch to chk and rec.
func (w *triggerFsmon) newTrigger(id, topic string, chk *checker, rec *recorder) (*trigger.Trigger, error) {
	o := w.pipe.ops
	t, err := trigger.New(w.pipe.tc.fabric, trigger.Config{
		ID: id, Topic: topic, PatternJSON: triggerPattern,
		MinConcurrency: 2, MaxConcurrency: 2,
	}, func(inv *trigger.Invocation) error {
		now := nowNs()
		o.attempted.Add(1)
		chk.handOut(inv.Events, func(seq uint64, due int64) {
			if !isCreate(seq) {
				chk.failLocked("seq %d is not a created event but reached the action", seq)
				return
			}
			rec.observe(now, seq, due)
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trigger %s: %w", id, err)
	}
	return t, nil
}

func (w *triggerFsmon) measure() (*outcome, error) {
	p := &w.pipe
	base := w.live.Stats()
	firstSeq := w.pp.sent.Load()
	cost, err := p.watch.measure(w.env.window, nil)
	sent := w.pp.halt()
	if err != nil {
		return nil, err
	}
	// Quiesce phase A: the live trigger must have seen every event sent.
	if err := waitTrigger(w.live, sent, 30*time.Second); err != nil {
		p.chk.fail(1, "live: %v", err)
	}
	w.live.Stop()
	total := w.live.Stats()
	p.chk.finish(uint64(sent), isCreate)
	late, err := w.pp.lateP99(firstSeq)
	if err != nil {
		return nil, err
	}

	// Phase B: triggers with groups of their own work the backlog off,
	// one after the other.
	drains := 1
	if w.env.tr != nil {
		drains = triggerBacklogWarmups + triggerBacklogDrains
	}
	var rates []float64
	for i := 0; i < drains; i++ {
		st, rate, err := w.drainBacklog(i)
		if err != nil {
			return nil, err
		}
		if i >= triggerBacklogWarmups {
			rates = append(rates, rate)
		}
		total.Invocations += st.Invocations
		total.EventsDelivered += st.EventsDelivered
		total.EventsFiltered += st.EventsFiltered
		total.Failures += st.Failures
		total.DeadLettered += st.DeadLettered
	}
	if n := total.Failures + total.DeadLettered; n > 0 {
		p.chk.fail(n, "triggers reported %d failures, %d dead-lettered", total.Failures, total.DeadLettered)
	}
	p.systemChecks()
	disk, err := p.tc.diskBytes()
	if err != nil {
		return nil, err
	}
	delivered := float64(total.EventsDelivered - base.EventsDelivered)
	filtered := float64(total.EventsFiltered - base.EventsFiltered)
	return p.watch.finish(p.ops, p.chk, windowResult{
		cost: cost, goroutines: w.goroutines, heapMB: w.heapMB, clients: len(p.clients),
		diskBytes: disk, userBytes: w.pp.bytes.Load() + w.backlogBytes,
	}, map[string]float64{
		"bench.gen_late_p99_ms":         late,
		"trigger.events_per_invocation": delivered / float64(total.Invocations-base.Invocations),
		"trigger.filtered_ratio":        filtered / (filtered + delivered),
		"trigger.failures":              float64(total.Failures),
		"trigger.backlog_events_per_s":  median(rates),
	})
}

// drainBacklog starts a fresh trigger on the backlog topic and times how
// long it takes to deliver or filter every preloaded event.
func (w *triggerFsmon) drainBacklog(i int) (trigger.Stats, float64, error) {
	chk := newChecker(triggerPartitions, true, false)
	t, err := w.newTrigger(fmt.Sprintf("backlog-%d", i), triggerBacklogTopic, chk, newRecorder(1))
	if err != nil {
		return trigger.Stats{}, 0, err
	}
	t0 := time.Now()
	t.Start()
	err = waitTrigger(t, triggerBacklogEvents, 60*time.Second)
	seconds := time.Since(t0).Seconds()
	t.Stop()
	if err != nil {
		w.pipe.chk.fail(1, "backlog: %v", err)
	}
	chk.finish(triggerBacklogEvents, isCreate)
	if _, failed, first := chk.result(); failed > 0 {
		w.pipe.chk.fail(failed, "backlog: %s", first)
	}
	return t.Stats(), triggerBacklogEvents / seconds, nil
}

// waitTrigger waits until the trigger has delivered or filtered n
// events.
func waitTrigger(t *trigger.Trigger, n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := t.Stats()
		if st.EventsDelivered+st.EventsFiltered >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trigger saw %d of %d events within %v", st.EventsDelivered+st.EventsFiltered, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *triggerFsmon) teardown() {
	w.pp.halt()
	if w.live != nil {
		w.live.Stop()
		w.live = nil
	}
	w.pipe.down()
}
