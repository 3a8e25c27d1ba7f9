package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// TestTransportErrorSentinels anchors the Transport error contract on
// the in-process side: the sentinels the wire protocol carries as
// compact error codes must be exactly what Direct returns, so
// errors.Is-based caller logic is transport-agnostic (the wire package's
// interop suite asserts the same matches across TCP).
func TestTransportErrorSentinels(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Fetch("", "ghost", 0, 0, 1, 0); !errors.Is(err, cluster.ErrNoTopic) {
		t.Fatalf("unknown topic error = %v", err)
	}
	if _, err := tr.Fetch("", "t", 0, -5, 1, 0); !errors.Is(err, eventlog.ErrOffsetOutOfRange) {
		t.Fatalf("out-of-range error = %v", err)
	}
	if _, err := tr.TopicMeta("ghost"); !errors.Is(err, cluster.ErrNoTopic) {
		t.Fatalf("meta unknown topic error = %v", err)
	}
}

func newTransport(t *testing.T, parts int) (*broker.Fabric, Transport) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: parts, ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	return f, NewDirect(f)
}

func TestProducerSendFlush(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{Linger: time.Hour}) // flush manually
	defer p.Close()
	for i := 0; i < 10; i++ {
		if err := p.SendJSON("", map[string]any{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Sent() != 10 {
		t.Fatalf("sent = %d", p.Sent())
	}
	res, err := tr.Fetch("", "t", 0, 0, 100, 0)
	if err != nil || len(res.Events) != 10 {
		t.Fatalf("fetched %d, %v", len(res.Events), err)
	}
}

func TestProducerBatchSizeTriggersFlush(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{BatchEvents: 5, Linger: time.Hour})
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := p.Send(event.Event{Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		end, _ := tr.EndOffset("t", 0)
		if end == 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("batch-size flush did not happen")
}

func TestProducerLingerFlush(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{Linger: 5 * time.Millisecond})
	defer p.Close()
	if err := p.Send(event.Event{Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		end, _ := tr.EndOffset("t", 0)
		if end == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("linger flush did not happen")
}

func TestProducerSendSync(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{})
	defer p.Close()
	off, err := p.SendSync(event.Event{Value: []byte("now")})
	if err != nil || off != 0 {
		t.Fatalf("off = %d, %v", off, err)
	}
}

func TestProducerClosedRejectsSend(t *testing.T) {
	_, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(event.Event{}); !errors.Is(err, ErrProducerClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := p.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
}

func TestProducerRetriesThroughFailover(t *testing.T) {
	f, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{Retries: 5, RetryBackoff: time.Millisecond, Linger: time.Hour})
	defer p.Close()
	pm, _ := f.Ctl.Partition("t", 0)
	if err := f.StopBroker(pm.Leader); err != nil {
		t.Fatal(err)
	}
	// The controller has already re-elected (StopBroker does failover),
	// so the retry path sees the new leader and succeeds.
	if _, err := p.SendSync(event.Event{Value: []byte("x")}); err != nil {
		t.Fatalf("send through failover: %v", err)
	}
}

func TestProducerDeliveryErrorSurfaces(t *testing.T) {
	f, tr := newTransport(t, 1)
	p := NewProducer(tr, "t", ProducerConfig{Retries: 1, RetryBackoff: time.Millisecond, Linger: time.Hour})
	defer p.Close()
	// Stop both brokers: nothing can lead the partition.
	_ = f.StopBroker(0)
	_ = f.StopBroker(1)
	_, err := p.SendSync(event.Event{Value: []byte("x")})
	var derr *DeliveryError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want DeliveryError", err)
	}
	if !errors.Is(err, broker.ErrLeaderUnavailable) {
		t.Fatalf("unwrap = %v", err)
	}
}

func TestConsumerAssignEarliest(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(20), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{Start: StartEarliest})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	got := pollAll(t, c, 20)
	if len(got) != 20 {
		t.Fatalf("got %d", len(got))
	}
	for i, e := range got {
		if e.Offset != int64(i) {
			t.Fatalf("offset %d at %d", e.Offset, i)
		}
	}
}

func TestConsumerStartLatestSkipsHistory(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(10), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{Start: StartLatest})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	evs, err := c.Poll(100)
	if err != nil || len(evs) != 0 {
		t.Fatalf("latest consumer saw history: %d, %v", len(evs), err)
	}
	if _, err := tr.Produce("", "t", 0, mkEvents(3), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	got := pollAll(t, c, 3)
	if len(got) != 3 {
		t.Fatalf("new events = %d", len(got))
	}
}

func TestConsumerStartAtTime(t *testing.T) {
	f, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(5), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	cut := f.Clock.Now()
	time.Sleep(2 * time.Millisecond)
	if _, err := tr.Produce("", "t", 0, mkEvents(5), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{Start: StartAtTime, StartTime: cut.Add(time.Millisecond)})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	got := pollAll(t, c, 5)
	if len(got) != 5 || got[0].Offset != 5 {
		t.Fatalf("got %d starting at %d", len(got), got[0].Offset)
	}
}

func TestGroupConsumersSplitPartitions(t *testing.T) {
	_, tr := newTransport(t, 4)
	if _, err := tr.Produce("", "t", -1, mkEvents(200), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c1 := NewConsumer(tr, ConsumerConfig{Group: "g", Start: StartEarliest, AutoCommit: true})
	c2 := NewConsumer(tr, ConsumerConfig{Group: "g", Start: StartEarliest, AutoCommit: true})
	defer c1.Close()
	defer c2.Close()
	if err := c1.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	// c1 joined alone first; resubscribe to pick up the 2-member split.
	if err := c1.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if n1, n2 := len(c1.Assignment()), len(c2.Assignment()); n1 != 2 || n2 != 2 {
		t.Fatalf("assignment split = %d/%d", n1, n2)
	}
	seen := map[int64]map[int]bool{}
	drain := func(c *Consumer) {
		for {
			evs, err := c.Poll(50)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) == 0 {
				return
			}
			for _, e := range evs {
				if seen[int64(e.Partition)] == nil {
					seen[int64(e.Partition)] = map[int]bool{}
				}
				seen[int64(e.Partition)][int(e.Offset)] = true
			}
		}
	}
	drain(c1)
	drain(c2)
	total := 0
	for _, offs := range seen {
		total += len(offs)
	}
	if total != 200 {
		t.Fatalf("consumed %d distinct events, want 200", total)
	}
}

func TestCommittedOffsetsResumeAfterRestart(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(10), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c1 := NewConsumer(tr, ConsumerConfig{Group: "g", MemberID: "m", Start: StartEarliest})
	if err := c1.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	evs, err := c1.Poll(4)
	if err != nil || len(evs) != 4 {
		t.Fatalf("first poll: %d, %v", len(evs), err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()
	// A new consumer in the same group resumes at the commit, not zero.
	c2 := NewConsumer(tr, ConsumerConfig{Group: "g", MemberID: "m2", Start: StartEarliest})
	defer c2.Close()
	if err := c2.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	got := pollAll(t, c2, 6)
	if len(got) != 6 || got[0].Offset != 4 {
		t.Fatalf("resumed at %d with %d events", got[0].Offset, len(got))
	}
}

func TestConsumerSeek(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(10), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{Start: StartEarliest})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	c.Seek("t", 0, 7)
	got := pollAll(t, c, 3)
	if len(got) != 3 || got[0].Offset != 7 {
		t.Fatalf("after seek: %d events from %d", len(got), got[0].Offset)
	}
}

func TestConsumerLag(t *testing.T) {
	_, tr := newTransport(t, 1)
	c := NewConsumer(tr, ConsumerConfig{Start: StartEarliest})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Produce("", "t", 0, mkEvents(15), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	lag, err := c.Lag()
	if err != nil || lag != 15 {
		t.Fatalf("lag = %d, %v", lag, err)
	}
	pollAll(t, c, 15)
	lag, _ = c.Lag()
	if lag != 0 {
		t.Fatalf("post-drain lag = %d", lag)
	}
}

func TestSubscribeWithoutGroupFails(t *testing.T) {
	_, tr := newTransport(t, 1)
	c := NewConsumer(tr, ConsumerConfig{})
	defer c.Close()
	if err := c.Subscribe("t"); err == nil {
		t.Fatal("groupless Subscribe accepted")
	}
}

func TestConsumerClosedRejectsPoll(t *testing.T) {
	_, tr := newTransport(t, 1)
	c := NewConsumer(tr, ConsumerConfig{})
	_ = c.Close()
	if _, err := c.Poll(1); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndProducerConsumerConcurrent(t *testing.T) {
	_, tr := newTransport(t, 2)
	const total = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := NewProducer(tr, "t", ProducerConfig{BatchEvents: 32})
		defer p.Close()
		for i := 0; i < total; i++ {
			if err := p.SendJSON("", map[string]any{"seq": i}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Flush(); err != nil {
			t.Error(err)
		}
	}()
	c := NewConsumer(tr, ConsumerConfig{Group: "g", Start: StartEarliest, AutoCommit: true})
	defer c.Close()
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < total && time.Now().Before(deadline) {
		evs, err := c.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		got += len(evs)
		if len(evs) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if got != total {
		t.Fatalf("consumed %d, want %d", got, total)
	}
}

func mkEvents(n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.Event{Value: []byte(fmt.Sprintf("e%d", i))}
	}
	return out
}

func pollAll(t *testing.T, c *Consumer, want int) []event.Event {
	t.Helper()
	var got []event.Event
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want && time.Now().Before(deadline) {
		evs, err := c.Poll(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
		if len(evs) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return got
}

// TestPollSessionReuseDeliversCorrectStream drains a partition through
// the zero-copy fetch session, checking every event inside its poll
// window (the validity contract): offsets must be dense and values
// intact even though the session reuses one buffer across polls.
func TestPollSessionReuseDeliversCorrectStream(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			_, tr := newTransport(t, 1)
			if _, err := tr.Produce("", "t", 0, mkEvents(100), broker.AcksLeader); err != nil {
				t.Fatal(err)
			}
			c := NewConsumer(tr, ConsumerConfig{Start: StartEarliest, Prefetch: prefetch})
			defer c.Close()
			if err := c.Assign("t", 0); err != nil {
				t.Fatal(err)
			}
			next := int64(0)
			deadline := time.Now().Add(5 * time.Second)
			for next < 100 && time.Now().Before(deadline) {
				evs, err := c.Poll(7) // odd size so polls straddle batches
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range evs {
					if ev.Offset != next {
						t.Fatalf("offset %d, want %d", ev.Offset, next)
					}
					if want := fmt.Sprintf("e%d", next); string(ev.Value) != want {
						t.Fatalf("value %q at offset %d, want %q", ev.Value, next, want)
					}
					next++
				}
			}
			if next != 100 {
				t.Fatalf("consumed %d events, want 100", next)
			}
		})
	}
}

// TestSeekInvalidatesPrefetch seeks backwards between polls: the
// in-flight prefetch (for the old position) must be discarded, not
// served.
func TestSeekInvalidatesPrefetch(t *testing.T) {
	_, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(50), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{Start: StartEarliest, Prefetch: true})
	defer c.Close()
	if err := c.Assign("t", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(10); err != nil { // leaves a prefetch at offset 10
		t.Fatal(err)
	}
	c.Seek("t", 0, 3)
	evs, err := c.Poll(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Offset != 3 {
		t.Fatalf("poll after seek started at %d, want 3", evs[0].Offset)
	}
}

func TestCommitWindowThrottlesAutoCommit(t *testing.T) {
	f, tr := newTransport(t, 1)
	if _, err := tr.Produce("", "t", 0, mkEvents(10), broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(tr, ConsumerConfig{
		Group: "g", MemberID: "m", Start: StartEarliest,
		AutoCommit: true, CommitInterval: time.Hour, // effectively never within the test
	})
	defer c.Close()
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	// First poll commits (lastCommit zero -> interval elapsed).
	if _, err := c.Poll(3); err != nil {
		t.Fatal(err)
	}
	first := f.Groups.Committed("g", "t", 0)
	if first < 0 {
		t.Fatal("first poll did not commit")
	}
	// Subsequent polls consume but do not commit within the window.
	if _, err := c.Poll(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Poll(3); err != nil {
		t.Fatal(err)
	}
	if got := f.Groups.Committed("g", "t", 0); got != first {
		t.Fatalf("commit advanced within window: %d -> %d", first, got)
	}
	// Manual commit still works.
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.Groups.Committed("g", "t", 0); got <= first {
		t.Fatalf("manual commit did not advance: %d", got)
	}
}
