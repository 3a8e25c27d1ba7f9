package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
)

// steadyRF3 is the closed-loop workload: one producer goroutine sends
// 256 events and flushes (one batch in flight: client.Producer.Send has
// no back-pressure of its own) while one consumer goroutine reads all
// four partitions through one session.
type steadyRF3 struct {
	env   *env
	keys  [][]byte
	batch []event.Event
	size  int64 // user bytes per event: len(key) + len(value)

	pipe       pipe
	heapMB     float64 // live heap at the end of set-up
	goroutines int     // resident goroutines at the end of set-up
	stop       atomic.Bool
	sent       atomic.Int64
	// warm is closed by the producer when it has sent the warm-up
	// events; it then waits for resume before it goes on.
	warm     chan struct{}
	resume   chan struct{}
	prodDone chan struct{}
}

const (
	steadyBatch     = 256
	steadyValueSize = 256
	steadyKeySize   = 8
	steadyRF        = 3
	// steadyWarmupEvents is the warm-up, by count and not by time, so
	// that the heap measured behind it holds the same log in every run.
	steadyWarmupEvents = 300_000
	// steadyRetention bounds what the brokers hold, in memory and on
	// disk, to about a second of the stream. With the log growing for the
	// whole window, the run's footprint (about 190 MB/s of dirty page
	// cache, and as much again of heap that every collection must mark)
	// decides the result: rates swing between 80 k and 290 k events/s
	// inside one run. cmd/octopus-server sweeps retention in a sleep
	// loop; the workload stands in for that loop every 100 ms.
	steadyRetention = time.Second
)

func newSteadyRF3(e *env) (workload, error) {
	g := newGenerator(e.seed)
	s := &steadyRF3{env: e, keys: g.keys(1024, steadyKeySize), size: steadyKeySize + steadyValueSize}
	s.batch = batchOf(s.keys, g.values(steadyBatch, steadyValueSize))
	s.pipe = pipe{env: e, spec: pipeSpec{
		cluster: clusterSpec{brokers: 3, minISR: 2},
		topics:  []topicSpec{{name: "steady", partitions: 4, rf: steadyRF, retention: steadyRetention}},
		acks:    broker.AcksLeader,
		consume: true,
		stride:  16,
	}}
	return s, nil
}

func (s *steadyRF3) setup() error {
	if err := s.pipe.up(); err != nil {
		return err
	}
	s.stop.Store(false)
	s.sent.Store(0)
	s.warm, s.resume, s.prodDone = make(chan struct{}), make(chan struct{}), make(chan struct{})
	go s.produce()
	select {
	case <-s.warm:
	case <-s.prodDone:
		return fmt.Errorf("producer stopped during warm-up")
	}
	// The producer is paused: once the consumer has caught up, the heap
	// holds the warm-up's events on three replicas and nothing in flight.
	if err := s.waitConsumed(int64(s.sent.Load()), 10*time.Second); err != nil {
		return err
	}
	s.heapMB = heapLiveMB()
	s.goroutines = residentGoroutines()
	return nil
}

// waitConsumed waits until the consume loop has handed out n events.
func (s *steadyRF3) waitConsumed(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.pipe.loop.handed.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: consumer handed out %d of %d events within %v", s.pipe.loop.handed.Load(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// produce is the closed loop. Keys rotate through the generated pool so
// successive batches spread differently over the partitions.
func (s *steadyRF3) produce() {
	defer close(s.prodDone)
	p := &s.pipe
	var seq uint64
	for !s.stop.Load() {
		if seq >= steadyWarmupEvents && s.warm != nil {
			close(s.warm)
			s.warm = nil
			<-s.resume
			continue
		}
		for i := range s.batch {
			s.batch[i].Key = s.keys[(seq+uint64(i))%uint64(len(s.keys))]
		}
		stampValues(s.batch, seq, nowNs())
		var id int
		if p.prodT != nil {
			id = p.prodT.begin("client.produce_batch")
		}
		for i := range s.batch {
			if err := p.prod.Send(s.batch[i]); err != nil {
				p.ops.fail(fmt.Errorf("send: %w", err))
			}
		}
		err := p.prod.Flush()
		if p.prodT != nil {
			p.prodT.end(id)
		}
		p.ops.attempted.Add(1)
		if err != nil {
			p.ops.fail(fmt.Errorf("flush: %w", err))
			return
		}
		seq += uint64(len(s.batch))
		s.sent.Store(int64(seq))
	}
}

func (s *steadyRF3) measure() (*outcome, error) {
	p := &s.pipe
	sweep := func() { p.tc.fabric.EnforceRetention() }
	close(s.resume)
	cost, err := p.watch.measure(s.env.window, sweep)
	s.stop.Store(true)
	<-s.prodDone
	if err != nil {
		return nil, err
	}
	sweep()
	acked := s.sent.Load()
	if err := p.loop.drain(acked, 30*time.Second); err != nil {
		p.chk.fail(1, "%v", err)
	}
	p.chk.finish(uint64(acked), nil)
	p.systemChecks()
	// What the sweeps deleted is on no disk any more: the ratio is taken
	// over the events the replicas still hold (all of one size).
	disk, err := p.tc.diskBytes()
	if err != nil {
		return nil, err
	}
	retained, err := p.tc.retainedEvents(p.spec.topics[0])
	if err != nil {
		return nil, err
	}
	return p.watch.finish(p.ops, p.chk, windowResult{
		cost: cost, goroutines: s.goroutines, heapMB: s.heapMB, clients: len(p.clients),
		diskBytes: disk, userBytes: retained * s.size / steadyRF,
	}, nil)
}

func (s *steadyRF3) teardown() {
	s.stop.Store(true)
	if s.prodDone != nil {
		select {
		case <-s.resume:
		default:
			close(s.resume)
		}
		<-s.prodDone
		s.prodDone = nil
	}
	s.pipe.down()
}
