package client

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/vclock"
)

// countingClock is the wall clock with its After calls counted.
type countingClock struct {
	vclock.Real
	afters atomic.Int64
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.afters.Add(1)
	return c.Real.After(d)
}

// stuckClock never fires After: a producer that waits on a timer before
// sending never sends.
type stuckClock struct{ vclock.Real }

func (stuckClock) After(time.Duration) <-chan time.Time { return nil }

// gateTransport records the size of every Produce batch and holds the
// first Produce until open is called.
type gateTransport struct {
	Transport
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu      sync.Mutex
	batches []int
}

func newGateTransport(tr Transport) *gateTransport {
	return &gateTransport{Transport: tr, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateTransport) open() { g.once.Do(func() { close(g.release) }) }

func (g *gateTransport) Produce(identity, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	g.mu.Lock()
	g.batches = append(g.batches, len(evs))
	first := len(g.batches) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return g.Transport.Produce(identity, topic, partition, evs, acks)
}

func (g *gateTransport) sizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.batches...)
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleProducerDoesNotTouchClock: a producer with nothing buffered
// blocks without arming timers, whatever its Linger; a positive Linger
// arms one timer for a batch, not one per event.
func TestIdleProducerDoesNotTouchClock(t *testing.T) {
	for _, linger := range []time.Duration{0, 5 * time.Millisecond} {
		_, tr := newTransport(t, 1)
		clk := &countingClock{}
		p := NewProducer(tr, "t", ProducerConfig{Linger: linger, Clock: clk})
		time.Sleep(50 * time.Millisecond)
		if n := clk.afters.Load(); n != 0 {
			t.Fatalf("linger %v: idle producer called Clock.After %d times in 50 ms, want 0", linger, n)
		}
		_ = p.Close()
	}

	_, tr := newTransport(t, 1)
	clk := &countingClock{}
	p := NewProducer(tr, "t", ProducerConfig{Linger: time.Hour, Clock: clk})
	defer p.Close()
	for i := 0; i < 10; i++ {
		if err := p.Send(event.Event{Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the linger timer", func() bool { return clk.afters.Load() > 0 })
	time.Sleep(10 * time.Millisecond)
	if n := clk.afters.Load(); n != 1 {
		t.Fatalf("10 lingering events armed %d timers, want 1", n)
	}
}

// TestSendToIdleProducerNeedsNoTimer: with the default Linger an event
// sent to an idle producer is delivered by the Send itself, even on a
// clock whose timers never fire.
func TestSendToIdleProducerNeedsNoTimer(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{Clock: stuckClock{}})
	defer p.Close()
	if err := p.Send(event.Event{Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool {
		end, _ := tr.EndOffset("t", 0)
		return end == 1
	})
}

// TestBatchFormsDuringRoundTrip: events sent while a produce is in
// flight go out together as the next batch as soon as it returns — the
// batch size comes from the round trip, not from a timer.
func TestBatchFormsDuringRoundTrip(t *testing.T) {
	_, tr := newTransport(t, 1)
	gate := newGateTransport(tr)
	p := NewProducer(gate, "t", ProducerConfig{Clock: stuckClock{}})
	defer p.Close()
	defer gate.open() // before Close, which would otherwise wait on the gate
	if err := p.Send(event.Event{Value: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the first Send was never produced")
	}
	for i := 0; i < 100; i++ {
		if err := p.Send(event.Event{Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	gate.open()
	waitFor(t, "the second batch", func() bool {
		end, _ := tr.EndOffset("t", 0)
		return end == 101
	})
	if got := gate.sizes(); len(got) != 2 || got[0] != 1 || got[1] != 100 {
		t.Fatalf("batches = %v, want [1 100]", got)
	}
}
