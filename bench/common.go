package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// env is what a run hands its workload.
type env struct {
	seed int64
	// window is the length of the measured window; warm-up is a tenth
	// of it on top.
	window time.Duration
	// tr is the tracing state, nil in the untraced run.
	tr *tracer
	// short marks the two short runs of traced mode: their end-to-end
	// numbers only feed the tracing-overhead figure, so samples too few
	// for a 99th percentile do not invalidate them.
	short bool
}

func (e *env) warmup() time.Duration { return e.window / 10 }

// workload is one named scenario. A workload value is built once per
// run (generating its inputs from the seed); setup and teardown may
// then be called in pairs any number of times, and measure once, after
// the last setup.
type workload interface {
	// setup brings up a fresh cluster, topics, preloaded data, clients
	// and load loops, and returns when warm-up is over.
	setup() error
	// measure runs the measured window, quiesces and checks.
	measure() (*outcome, error)
	// teardown stops the load and removes the cluster.
	teardown()
}

// outcome is what a measured window yields.
type outcome struct {
	// values holds every end-to-end metric except setup_s, and (traced
	// runs) the per-layer metrics read from the run itself.
	values    map[string]float64
	attempted int64
	failed    int64
	// first describes the first failure, "" when failed == 0.
	first string
}

// ops counts the operations the load loops attempt: produce batches,
// polls and trigger invocations.
type ops struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     string
}

func (o *ops) fail(err error) {
	o.failed.Add(1)
	o.mu.Lock()
	if o.first == "" {
		o.first = err.Error()
	}
	o.mu.Unlock()
}

// consumeLoop polls cons until stop is set or target (once >= 0) events
// have passed the checker, handing every batch to chk and rec.
type consumeLoop struct {
	cons   *client.Consumer
	chk    *checker
	rec    *recorder
	ops    *ops
	tr     *tracedTransport // nil untraced
	stop   atomic.Bool
	target atomic.Int64
	handed atomic.Int64
	done   chan struct{}
}

func startConsumeLoop(cons *client.Consumer, chk *checker, rec *recorder, o *ops, tr *tracedTransport) *consumeLoop {
	l := &consumeLoop{cons: cons, chk: chk, rec: rec, ops: o, tr: tr, done: make(chan struct{})}
	l.target.Store(-1)
	go l.run()
	return l
}

func (l *consumeLoop) run() {
	defer close(l.done)
	var now int64
	visit := func(seq uint64, due int64) { l.rec.observe(now, seq, due) }
	for !l.stop.Load() {
		if t := l.target.Load(); t >= 0 && l.handed.Load() >= t {
			return
		}
		evs, err := poll(l.cons, l.tr)
		now = nowNs()
		l.ops.attempted.Add(1)
		if err != nil {
			l.ops.fail(fmt.Errorf("poll: %w", err))
			time.Sleep(10 * time.Millisecond)
			continue
		}
		l.chk.handOut(evs, visit)
		l.handed.Add(int64(len(evs)))
	}
}

// drain waits until the loop has handed out n events, or gives up after
// timeout and stops it.
func (l *consumeLoop) drain(n int64, timeout time.Duration) error {
	l.target.Store(n)
	select {
	case <-l.done:
		return nil
	case <-time.After(timeout):
		l.halt()
		return fmt.Errorf("quiesce: consumer handed out %d of %d acked events within %v", l.handed.Load(), n, timeout)
	}
}

func (l *consumeLoop) halt() {
	l.stop.Store(true)
	<-l.done
}
