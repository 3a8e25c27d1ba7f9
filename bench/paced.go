package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
)

// pacedProducer is the open-loop producer goroutine of the two paced
// workloads: it hands client.Producer.Send every event at its due time
// (default linger and batching) from a ring of pre-generated buffers.
type pacedProducer struct {
	prod     *client.Producer
	ops      *ops
	perSec   int
	hdrInKey bool
	// bodies are the pre-generated payloads. With the header in the
	// value each is a ring slot that is re-stamped; with the header in
	// the key, body i%len is sent as is and hdrs is the ring.
	bodies [][]byte
	keys   [][]byte
	hdrs   [][]byte

	pacer *pacer
	stop  atomic.Bool
	sent  atomic.Int64
	bytes atomic.Int64 // user bytes handed to Send
	done  chan struct{}
}

// ringSlots bounds how long a buffer handed to Send stays untouched:
// at the paced rates it is more than a second, far beyond linger plus
// one acks=all round trip.
const ringSlots = 4096

func (pp *pacedProducer) start() {
	pp.stop.Store(false)
	pp.sent.Store(0)
	pp.bytes.Store(0)
	pp.done = make(chan struct{})
	pp.pacer = newPacer(nowNs()+int64(time.Millisecond), pp.perSec)
	go pp.run()
}

func (pp *pacedProducer) run() {
	defer close(pp.done)
	var bytes int64
	for !pp.stop.Load() {
		from, to := pp.pacer.wait(math.MaxUint64)
		now := nowNs()
		for seq := from; seq < to; seq++ {
			ev := pp.event(seq)
			bytes += int64(len(ev.Key) + len(ev.Value))
			if err := pp.prod.Send(ev); err != nil {
				pp.ops.fail(fmt.Errorf("send: %w", err))
			}
			pp.pacer.sent(seq, now)
		}
		pp.ops.attempted.Add(1)
		pp.bytes.Store(bytes)
		pp.sent.Store(int64(to))
	}
	if err := pp.prod.Flush(); err != nil {
		pp.ops.fail(fmt.Errorf("flush: %w", err))
	}
}

func (pp *pacedProducer) event(seq uint64) event.Event {
	due := pp.pacer.due(seq)
	if pp.hdrInKey {
		hdr := pp.hdrs[seq%uint64(len(pp.hdrs))]
		body := pp.bodies[seq%uint64(len(pp.bodies))]
		stamp(hdr, seq, due, body)
		return event.Event{Key: hdr, Value: body}
	}
	v := pp.bodies[seq%uint64(len(pp.bodies))]
	stamp(v, seq, due, v[hdrLen:])
	return event.Event{Key: pp.keys[seq%uint64(len(pp.keys))], Value: v}
}

// halt stops the goroutine after its final flush and returns how many
// events it sent.
func (pp *pacedProducer) halt() int64 {
	pp.stop.Store(true)
	if pp.done != nil {
		<-pp.done
		pp.done = nil
	}
	return pp.sent.Load()
}

// lateLimitMs is how late the generator may run at the 99th percentile
// and still have applied the load the workload names.
const lateLimitMs = 5

// lateP99 is the 99th percentile lateness (ms) of the sends from event
// fromSeq on, taken like the latency percentiles: the median over
// chunks of the window. A run whose generator was later than
// lateLimitMs did not apply the load the workload names; it is
// reported on stderr and in bench.gen_late_p99_ms, and its latencies,
// which are taken from the due times and so contain the lateness, still
// come out: a stall of the host must not turn into a failed run.
func (pp *pacedProducer) lateP99(fromSeq int64) (float64, error) {
	_, p99, err := latency(true, &recorder{latMs: pp.pacer.late[fromSeq:]})
	if err != nil {
		return 0, fmt.Errorf("generator lateness: %w", err)
	}
	if p99 > lateLimitMs {
		fmt.Fprintf(os.Stderr, "bench: open-loop generator ran %.2f ms late at the 99th percentile (limit %d ms): the load was not applied as named, read this run as invalid\n", p99, lateLimitMs)
	}
	return p99, nil
}

// pacedWAN is the open-loop latency workload: every client<->broker and
// follower<->leader hop crosses a 2 ms one-way link, produces wait for
// the full ISR, and latency is measured from each event's due time.
type pacedWAN struct {
	env        *env
	pipe       pipe
	pp         pacedProducer
	heapMB     float64 // live heap at the end of set-up
	goroutines int     // resident goroutines at the end of set-up
}

const (
	pacedRate      = 2000
	pacedValueSize = 1024
	pacedKeySize   = 8
	pacedOneWay    = 2 * time.Millisecond
)

func newPacedWAN(e *env) (workload, error) {
	g := newGenerator(e.seed)
	w := &pacedWAN{env: e}
	w.pipe = pipe{env: e, spec: pipeSpec{
		cluster: clusterSpec{brokers: 3, minISR: 2, oneWay: pacedOneWay},
		topics:  []topicSpec{{name: "paced", partitions: 4, rf: 3}},
		acks:    broker.AcksAll,
		consume: true,
		stride:  1,
	}}
	w.pp = pacedProducer{
		perSec: pacedRate,
		keys:   g.keys(1024, pacedKeySize),
		bodies: g.values(ringSlots, pacedValueSize),
	}
	return w, nil
}

func (w *pacedWAN) setup() error {
	if err := w.pipe.up(); err != nil {
		return err
	}
	w.pp.prod, w.pp.ops = w.pipe.prod, w.pipe.ops
	w.pp.start()
	time.Sleep(w.env.warmup())
	w.heapMB = heapLiveMB()
	w.goroutines = residentGoroutines()
	return nil
}

func (w *pacedWAN) measure() (*outcome, error) {
	p := &w.pipe
	firstSeq := w.pp.sent.Load()
	cost, err := p.watch.measure(w.env.window, nil)
	acked := w.pp.halt()
	if err != nil {
		return nil, err
	}
	if err := p.loop.drain(acked, 30*time.Second); err != nil {
		p.chk.fail(1, "%v", err)
	}
	p.chk.finish(uint64(acked), nil)
	p.systemChecks()
	late, err := w.pp.lateP99(firstSeq)
	if err != nil {
		return nil, err
	}
	disk, err := p.tc.diskBytes()
	if err != nil {
		return nil, err
	}
	return p.watch.finish(p.ops, p.chk, windowResult{
		cost: cost, goroutines: w.goroutines, heapMB: w.heapMB, clients: len(p.clients),
		diskBytes: disk, userBytes: w.pp.bytes.Load(),
	}, map[string]float64{"bench.gen_late_p99_ms": late})
}

func (w *pacedWAN) teardown() {
	w.pp.halt()
	w.pipe.down()
}
