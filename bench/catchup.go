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

// catchupFanout is the read-only workload. Set-up bulk-writes a log
// over 64 partitions; then two consumers, each with its own wire.Client
// and half of the partitions on multiplexed sessions, drain it from the
// earliest offset over and over, assigning a fresh Consumer for every
// pass. There is no producer in the window, so latency here is taken
// from the moment the pass's Consumer was created: how long after it
// started consuming was a backlog event handed to it.
//
// A pass inside the window ends when the first of its partitions is
// exhausted. Draining on would measure something else: once some
// assigned partitions are at their end and others are not, a Poll that
// finds every local queue momentarily empty long-polls the next
// partition in turn for the full PollWait, even if it is an exhausted
// one, and throughput collapses to one credit window per 100 ms (see
// README.md, known gaps). After the window each consumer does drain one
// pass to the end, so that exactly-once is checked on the whole log.
type catchupFanout struct {
	env   *env
	batch []event.Event // re-stamped for every preload batch

	tc         *testCluster
	heapMB     float64 // live heap once the log is loaded, before the drains start
	goroutines int     // resident goroutines at the end of set-up
	clients    []*wire.Client
	ops        *ops
	watch      watch
	drains     []*drainLoop
	stop       atomic.Bool
	// whole asks the drain loops for one whole pass after they stop:
	// set by measure, not by the teardown of a discarded set-up.
	whole atomic.Bool
	wg    sync.WaitGroup
}

const (
	catchupEvents     = 1_000_000
	catchupPartitions = 64
	catchupBatch      = 500
	catchupValueSize  = 256
	catchupKeySize    = 8
	catchupConsumers  = 2
	catchupTopic      = "catchup"
	// catchupWindowBytes is the consumers' session window. The default,
	// 1 MiB shared by the ~11 subscriptions a consumer has on one
	// connection, holds fewer ~140 KB frames than there are
	// subscriptions: the pump can spend it all on the others while the
	// consumer long-polls one, and the workload then measures that stall
	// (README.md, known gaps).
	catchupWindowBytes = 8 << 20

	catchupPerPartition = catchupEvents / catchupPartitions
	catchupUserBytes    = catchupEvents * (catchupKeySize + catchupValueSize)
)

// catchupPartition is where preload batch b (sequence numbers
// b*catchupBatch ...) was written.
func catchupPartition(seq uint64) int { return int(seq / catchupBatch % catchupPartitions) }

func newCatchupFanout(e *env) (workload, error) {
	g := newGenerator(e.seed)
	return &catchupFanout{
		env:   e,
		batch: batchOf(g.keys(catchupBatch, catchupKeySize), g.values(catchupBatch, catchupValueSize)),
	}, nil
}

func (w *catchupFanout) setup() error {
	spec := clusterSpec{brokers: 3, minISR: 1, countBytes: w.env.tr != nil}
	topic := topicSpec{name: catchupTopic, partitions: catchupPartitions, rf: 1}
	tc, err := startCluster(spec, topic)
	if err != nil {
		return err
	}
	w.tc = tc
	w.ops = &ops{}
	w.stop.Store(false)
	w.whole.Store(false)
	for i := 0; i < catchupConsumers; i++ {
		c, err := tc.dial(catchupWindowBytes)
		if err != nil {
			return fmt.Errorf("dial consumer client %d: %w", i, err)
		}
		w.clients = append(w.clients, c)
	}
	if err := w.preload(); err != nil {
		return err
	}
	w.heapMB = heapLiveMB()
	w.watch = watch{tr: w.env.tr, short: w.env.short, tc: tc, via: w.clients[0], topics: []topicSpec{topic}}
	for i, c := range w.clients {
		d := &drainLoop{w: w, id: i, rec: newRecorder(16)}
		d.t, d.tt = w.env.tr.transport(c)
		w.drains = append(w.drains, d)
		w.watch.recs = append(w.watch.recs, d.rec)
		w.wg.Add(1)
		go d.run()
	}
	time.Sleep(w.env.warmup())
	w.goroutines = residentGoroutines()
	return nil
}

// preload is the bulk write that set-up times: batches of 500 events
// through wire.Client.Produce, batch b to partition b mod 64.
func (w *catchupFanout) preload() error {
	for seq := uint64(0); seq < catchupEvents; seq += catchupBatch {
		stampValues(w.batch, seq, 0)
		if _, err := w.clients[0].Produce("", catchupTopic, catchupPartition(seq), w.batch, broker.AcksLeader); err != nil {
			return fmt.Errorf("preload at seq %d: %w", seq, err)
		}
	}
	return nil
}

// drainLoop is one consumer goroutine.
type drainLoop struct {
	w   *catchupFanout
	id  int
	t   client.Transport
	tt  *tracedTransport // nil untraced
	rec *recorder

	failed int64
	first  string
}

// mine reports whether the loop's consumer owns the partition.
func (d *drainLoop) mine(partition int) bool { return partition%catchupConsumers == d.id }

func (d *drainLoop) run() {
	defer d.w.wg.Done()
	for !d.w.stop.Load() {
		if err := d.pass(false); err != nil {
			d.w.ops.fail(err)
			return
		}
	}
	if d.w.whole.Load() {
		if err := d.pass(true); err != nil {
			d.w.ops.fail(err)
		}
	}
}

// pass drains the loop's partitions through a fresh Consumer, checking
// everything handed out. A whole pass runs to the end of every
// partition and must have handed out exactly the preloaded events of
// its partitions; otherwise the pass ends when the workload stops or
// the first partition is exhausted.
func (d *drainLoop) pass(whole bool) error {
	passStart := nowNs()
	cons := client.NewConsumer(d.t, consumerConfig)
	defer cons.Close()
	var parts []int
	for p := 0; p < catchupPartitions; p++ {
		if d.mine(p) {
			parts = append(parts, p)
		}
	}
	if err := cons.Assign(catchupTopic, parts...); err != nil {
		return fmt.Errorf("assign: %w", err)
	}
	chk := newChecker(catchupPartitions, false, true)
	var now int64
	visit := func(seq uint64, _ int64) { d.rec.observe(now, seq, passStart) }
	var got [catchupPartitions]int
	handed, exhausted := 0, false
	deadline := time.Now().Add(30 * time.Second)
	for {
		if whole {
			if handed >= len(parts)*catchupPerPartition {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("whole pass handed out %d of %d events within 30s", handed, len(parts)*catchupPerPartition)
			}
		} else if exhausted || d.w.stop.Load() {
			break
		}
		evs, err := poll(cons, d.tt)
		now = nowNs()
		d.w.ops.attempted.Add(1)
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		chk.handOut(evs, visit)
		handed += len(evs)
		for i := range evs {
			if p := evs[i].Partition; p >= 0 && p < catchupPartitions {
				got[p]++
				exhausted = exhausted || got[p] >= catchupPerPartition
			}
		}
	}
	if whole {
		chk.finish(catchupEvents, func(seq uint64) bool { return d.mine(catchupPartition(seq)) })
	}
	if _, failed, first := chk.result(); failed > 0 {
		d.failed += failed
		if d.first == "" {
			d.first = first
		}
	}
	return nil
}

func (w *catchupFanout) measure() (*outcome, error) {
	cost, err := w.watch.measure(w.env.window, nil)
	w.whole.Store(true)
	w.stop.Store(true)
	w.wg.Wait()
	if err != nil {
		return nil, err
	}
	chk := newChecker(catchupPartitions, false, true)
	for _, d := range w.drains {
		if d.failed > 0 {
			chk.fail(d.failed, "consumer %d: %s", d.id, d.first)
		}
	}
	w.watch.clusterChecks(chk)
	disk, err := w.tc.diskBytes()
	if err != nil {
		return nil, err
	}
	return w.watch.finish(w.ops, chk, windowResult{
		cost: cost, goroutines: w.goroutines, heapMB: w.heapMB, clients: len(w.clients),
		diskBytes: disk, userBytes: catchupUserBytes,
	}, nil)
}

func (w *catchupFanout) teardown() {
	w.stop.Store(true)
	w.wg.Wait()
	w.watch.stop()
	for _, c := range w.clients {
		_ = c.Close() // tearing down: a close error changes nothing
	}
	if w.tc != nil {
		w.tc.close()
	}
	w.tc, w.clients, w.drains = nil, nil, nil
}
