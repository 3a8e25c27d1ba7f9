package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

// runWireSuite drives the full remote pipeline — SDK producer and
// grouped prefetching consumer, offset and metadata ops, typed error
// sentinels, the stats snapshot, and concurrent pipelined produces —
// against a server over one client, with everything v2 carries in use:
// metadata routing, the fetch session, metadata push and stats.
func runWireSuite(t *testing.T) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("ip", "", cluster.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.RouterEnabled() {
		t.Fatal("metadata routing not enabled after dial")
	}

	// SDK producer: batched, keyed, flushed.
	const total = 200
	p := client.NewProducer(c, "ip", client.ProducerConfig{BatchEvents: 16})
	for i := 0; i < total; i++ {
		if err := p.SendJSON(fmt.Sprintf("k%d", i%17), map[string]any{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	// Grouped, prefetching consumer: every event comes back, offsets
	// stamped contiguously per partition (the dense-run decode path).
	cons := client.NewConsumer(c, client.ConsumerConfig{
		Group: "g", Start: client.StartEarliest, AutoCommit: true, Prefetch: true,
	})
	defer cons.Close()
	if err := cons.Subscribe("ip"); err != nil {
		t.Fatal(err)
	}
	lastOff := map[int]int64{}
	got := 0
	deadline := time.Now().Add(15 * time.Second)
	for got < total && time.Now().Before(deadline) {
		evs, err := cons.Poll(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if prev, ok := lastOff[ev.Partition]; ok && ev.Offset != prev+1 {
				t.Fatalf("partition %d offsets not contiguous: %d after %d", ev.Partition, ev.Offset, prev)
			}
			lastOff[ev.Partition] = ev.Offset
			got++
		}
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
	// The multiplexed session is what actually served the consumer.
	if s.met().sessionsOpen.Value() == 0 {
		t.Fatal("no fetch session opened")
	}

	// Observability: the broker's snapshot arrives over the same
	// connection and reflects the traffic above.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	produced := int64(-1)
	for _, e := range st.Counters {
		if e.Name == "fabric.produced" {
			produced = e.Value
		}
	}
	if produced < total {
		t.Fatalf("stats fabric.produced = %d, want >= %d", produced, total)
	}
	histObserved := false
	for i := range st.Hists {
		if st.Hists[i].Count > 0 && len(st.Hists[i].Buckets) > 0 {
			histObserved = true
		}
	}
	if !histObserved {
		t.Fatal("stats snapshot carries no populated histogram after traffic")
	}
	if len(st.TraceStages) == 0 || st.TraceEvery == 0 {
		t.Fatalf("stage tracing not exposed: stages %v every %d", st.TraceStages, st.TraceEvery)
	}

	// Offset + metadata ops.
	meta, err := c.TopicMeta("ip")
	if err != nil || meta.Config.Partitions != 4 {
		t.Fatalf("meta = %+v, %v", meta, err)
	}
	var end int64
	for pt := 0; pt < 4; pt++ {
		e, err := c.EndOffset("ip", pt)
		if err != nil {
			t.Fatal(err)
		}
		start, err := c.StartOffset("ip", pt)
		if err != nil || start != 0 {
			t.Fatalf("start = %d, %v", start, err)
		}
		end += e
	}
	if end != total {
		t.Fatalf("end offsets sum to %d, want %d", end, total)
	}

	// Typed sentinels survive the transport.
	if _, err := c.Fetch("", "nope", 0, 0, 1, 0); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown topic error = %v", err)
	}
	if _, err := c.Fetch("", "ip", 0, -5, 1, 0); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("out-of-range error = %v", err)
	}

	// Concurrent pipelined produces keep working after everything above.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := c.Produce("", "ip", w%4, []event.Event{{Value: []byte("x")}}, broker.AcksLeader); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInteropV2V2 runs the suite between a current client and a
// current server: the only pairing there is, since every peer speaks
// all of v2.
func TestInteropV2V2(t *testing.T) { runWireSuite(t) }
