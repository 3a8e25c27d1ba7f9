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
// sentinels, and concurrent pipelined produces — against a server that
// withholds serverMask from negotiation with a client that withholds
// clientMask. It is the interop regression harness: every fallback
// pairing must pass the identical suite.
func runWireSuite(t *testing.T, serverMask, clientMask uint32) {
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
	s.MaskFeatures = serverMask
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 2, MaskFeatures: clientMask})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	negotiated := allFeatures &^ serverMask &^ clientMask
	if got := c.Features(); got != negotiated {
		t.Fatalf("negotiated features %#x, want %#x (server mask %#x, client mask %#x)", got, negotiated, serverMask, clientMask)
	}
	wantMeta := negotiated&FeatClusterMeta != 0
	if gotMeta := c.RouterEnabled(); gotMeta != wantMeta {
		t.Fatalf("metadata routing enabled = %v, want %v", gotMeta, wantMeta)
	}
	wantSession := negotiated&FeatSessionFetch != 0
	wantStats := negotiated&FeatStats != 0
	if negotiated&FeatReplication == 0 {
		// The fallback contract: without the feature, replication ops
		// are refused as unknown — a clean error, never a hang or a
		// batch served to an un-negotiated peer.
		var rb broker.FetchBuffer
		if _, err := c.ReplicaFetch(1, "ip", 0, 0, 0, 10, 1<<20, 0, &rb); err == nil {
			t.Fatal("ReplicaFetch succeeded without FeatReplication")
		}
		if err := c.ReplicaAck(1, "ip", 0, 0, 0); err == nil {
			t.Fatal("ReplicaAck succeeded without FeatReplication")
		}
	}
	if !wantMeta {
		// The fallback contract: without the feature, OpMetadata is an
		// unknown op and the client slot-hashes over the seed address.
		if _, err := c.ClusterMetadata(); err == nil {
			t.Fatal("ClusterMetadata succeeded without FeatClusterMeta")
		}
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
	// The negotiated transport is what actually served the consumer:
	// the multiplexed session when negotiated, never otherwise.
	sessOpen := s.met().sessionsOpen.Value()
	if wantSession && sessOpen == 0 {
		t.Fatal("no fetch session opened despite FeatSessionFetch")
	}
	if !wantSession && sessOpen != 0 {
		t.Fatalf("%d fetch sessions open without FeatSessionFetch", sessOpen)
	}

	// Observability: with FeatStats negotiated the broker's snapshot
	// arrives over the same connection and reflects the traffic above;
	// without it, OpStats is refused — a clean error, never leaked
	// telemetry.
	if wantStats {
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
	} else {
		if _, err := c.Stats(); err == nil {
			t.Fatal("Stats succeeded without FeatStats")
		}
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

// TestInteropV2V2 anchors the suite on the all-on pairing (fetch
// sessions negotiated and active). Each test after it masks one feature
// on one side; the suite must pass identically through the fallback.
func TestInteropV2V2(t *testing.T) { runWireSuite(t, 0, 0) }

// Cluster metadata masked: OpMetadata is an unknown op and the client
// slot-hashes over its seed address.
func TestInteropClusterMetaOffServerSide(t *testing.T) { runWireSuite(t, FeatClusterMeta, 0) }
func TestInteropClusterMetaOffClientSide(t *testing.T) { runWireSuite(t, 0, FeatClusterMeta) }

// Fetch sessions masked: the client consumes over pipelined
// request/response long-poll fetch.
func TestInteropSessionOffServerSide(t *testing.T) { runWireSuite(t, FeatSessionFetch, 0) }
func TestInteropSessionOffClientSide(t *testing.T) { runWireSuite(t, 0, FeatSessionFetch) }

// Metadata push masked: the client re-routes reactively after a
// misrouted request.
func TestInteropMetaPushOffServerSide(t *testing.T) { runWireSuite(t, FeatMetaPush, 0) }
func TestInteropMetaPushOffClientSide(t *testing.T) { runWireSuite(t, 0, FeatMetaPush) }

// Replication masked: OpReplicaFetch/OpReplicaAck are refused as
// unknown ops — the single-replica behavior of a pre-replication peer.
func TestInteropReplicationOffServerSide(t *testing.T) { runWireSuite(t, FeatReplication, 0) }
func TestInteropReplicationOffClientSide(t *testing.T) { runWireSuite(t, 0, FeatReplication) }

// Stats masked: OpStats is refused as an unknown op.
func TestInteropStatsOffServerSide(t *testing.T) { runWireSuite(t, FeatStats, 0) }
func TestInteropStatsOffClientSide(t *testing.T) { runWireSuite(t, 0, FeatStats) }
