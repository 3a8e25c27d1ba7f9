package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/vclock"
)

// ProducerConfig tunes the SDK producer. Defaults mirror the paper's
// tuned settings (§V-B: buffer.memory reduced to 256 KB) and the SDK's
// retry behavior (§IV-F: "the SDK producer retries a configurable number
// of times before failing").
type ProducerConfig struct {
	// Identity is the producing principal (empty = trusted in-process).
	Identity string
	// Acks is the acknowledgment level (default AcksLeader).
	Acks broker.Acks
	// AcksSet marks Acks as explicitly chosen, allowing AcksNone (whose
	// zero value would otherwise be indistinguishable from "unset").
	AcksSet bool
	// Retries is how many times a failed batch is retried (default 3).
	Retries int
	// RetryBackoff separates attempts (default 50 ms).
	RetryBackoff time.Duration
	// BatchEvents flushes when this many events are buffered (default 256).
	BatchEvents int
	// BufferBytes flushes when this much payload is buffered
	// (default 256 KB, the paper's buffer.memory).
	BufferBytes int
	// Linger is how long the oldest buffered event may wait for company
	// before a flush. 0 (the default) means no wait: an idle producer
	// sends the first event at once, and batches form only from what
	// arrives while a produce is in flight, so the batch size follows
	// the round-trip time. A positive value holds a flush back until the
	// oldest buffered event has waited that long, or BatchEvents /
	// BufferBytes fill first.
	Linger time.Duration
	// Clock supplies time (default real).
	Clock vclock.Clock
}

func (c *ProducerConfig) fill() {
	if c.Acks == 0 && !c.AcksSet {
		c.Acks = broker.AcksLeader
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BatchEvents == 0 {
		c.BatchEvents = 256
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 256 << 10
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// ErrProducerClosed reports a send on a closed producer.
var ErrProducerClosed = errors.New("client: producer closed")

// DeliveryError describes a batch that exhausted its retries.
type DeliveryError struct {
	Topic  string
	Events int
	Err    error
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("client: delivery of %d events to %s failed: %v", e.Events, e.Topic, e.Err)
}

func (e *DeliveryError) Unwrap() error { return e.Err }

// Producer publishes events to one topic with asynchronous batching:
// Send buffers and a background flusher sends the buffer as one batch.
// With the default zero Linger the flusher sends as soon as it is idle:
// the first Send into an empty buffer wakes it, and the events that
// arrive while that produce is in flight form the next batch, so batches
// grow with load and the round-trip time instead of a timer. A positive
// Linger instead holds each batch back until its oldest event has waited
// that long. BatchEvents and BufferBytes flush a full buffer early
// either way. Failed batches are retried with backoff; Flush and Close
// provide the synchronous barriers.
type Producer struct {
	t     Transport
	topic string
	cfg   ProducerConfig

	mu      sync.Mutex
	buf     []event.Event
	bufSize int
	closed  bool
	flushCh chan chan error
	wakeCh  chan struct{}
	doneCh  chan struct{}

	errMu  sync.Mutex
	errors []error

	// Sent counts successfully delivered events.
	sent int64
}

// NewProducer creates a producer for the topic and starts its flusher.
func NewProducer(t Transport, topic string, cfg ProducerConfig) *Producer {
	cfg.fill()
	p := &Producer{
		t:       t,
		topic:   topic,
		cfg:     cfg,
		flushCh: make(chan chan error, 16),
		wakeCh:  make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
	}
	go p.run()
	return p
}

// Send buffers an event for asynchronous delivery. It returns
// immediately; delivery failures surface via Errors or the error
// returned from Flush/Close.
func (p *Producer) Send(ev event.Event) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProducerClosed
	}
	wake := len(p.buf) == 0
	p.buf = append(p.buf, ev)
	p.bufSize += ev.Size()
	wake = wake || p.fullLocked()
	p.mu.Unlock()
	if wake {
		select {
		case p.wakeCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// SendJSON marshals v and sends it with the given key.
func (p *Producer) SendJSON(key string, v any) error {
	return p.Send(event.New(key, v))
}

// SendSync publishes a single event synchronously, bypassing the buffer,
// and returns its base offset.
func (p *Producer) SendSync(ev event.Event) (int64, error) {
	return p.produceWithRetry([]event.Event{ev})
}

// Flush delivers everything buffered and returns the first error
// encountered since the previous Flush, if any.
func (p *Producer) Flush() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProducerClosed
	}
	p.mu.Unlock()
	ack := make(chan error, 1)
	p.flushCh <- ack
	return <-ack
}

// Close flushes and stops the producer.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	ack := make(chan error, 1)
	p.flushCh <- ack
	err := <-ack
	close(p.doneCh)
	return err
}

// Sent returns the number of events successfully delivered.
func (p *Producer) Sent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Errors drains and returns accumulated delivery errors.
func (p *Producer) Errors() []error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	out := p.errors
	p.errors = nil
	return out
}

// fullLocked reports whether the buffer has reached a size bound; p.mu
// must be held.
func (p *Producer) fullLocked() bool {
	return len(p.buf) >= p.cfg.BatchEvents || p.bufSize >= p.cfg.BufferBytes
}

// run is the flusher. Send wakes it when the buffer stops being empty
// and when it fills; a wake flushes at once unless a positive Linger
// asks to wait, in which case it arms the one linger timer. An idle
// producer therefore blocks here without touching the clock.
func (p *Producer) run() {
	var linger <-chan time.Time // armed only while the oldest event lingers
	for {
		select {
		case <-p.doneCh:
			return
		case ack := <-p.flushCh:
			linger = nil
			ack <- p.flushOnce()
		case <-p.wakeCh:
			if p.cfg.Linger > 0 {
				p.mu.Lock()
				hold := len(p.buf) > 0 && !p.fullLocked()
				p.mu.Unlock()
				if hold {
					if linger == nil {
						linger = p.cfg.Clock.After(p.cfg.Linger)
					}
					continue
				}
			}
			linger = nil
			p.recordErr(p.flushOnce())
		case <-linger:
			linger = nil
			p.recordErr(p.flushOnce())
		}
	}
}

func (p *Producer) recordErr(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	p.errors = append(p.errors, err)
	p.errMu.Unlock()
}

// flushOnce drains the buffer and produces it as one batch.
func (p *Producer) flushOnce() error {
	p.mu.Lock()
	batch := p.buf
	p.buf = nil
	p.bufSize = 0
	p.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	_, err := p.produceWithRetry(batch)
	return err
}

func (p *Producer) produceWithRetry(batch []event.Event) (int64, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if attempt > 0 {
			p.cfg.Clock.Sleep(p.cfg.RetryBackoff)
		}
		off, err := p.t.Produce(p.cfg.Identity, p.topic, -1, batch, p.cfg.Acks)
		if err == nil {
			p.mu.Lock()
			p.sent += int64(len(batch))
			p.mu.Unlock()
			return off, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	derr := &DeliveryError{Topic: p.topic, Events: len(batch), Err: lastErr}
	return 0, derr
}

// temporary is implemented by transient transport errors (e.g. network
// partitions injected by internal/netsim).
type temporary interface {
	Temporary() bool
}

// retryable reports whether an error is transient: leader failover,
// broker unavailability and network partitions heal; authorization and
// schema errors do not.
func retryable(err error) bool {
	var tmp temporary
	if errors.As(err, &tmp) && tmp.Temporary() {
		return true
	}
	return errors.Is(err, broker.ErrLeaderUnavailable) ||
		errors.Is(err, broker.ErrBrokerDown) ||
		errors.Is(err, broker.ErrNotEnoughReplicas)
}
