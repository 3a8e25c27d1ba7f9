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
// sentinels, and concurrent pipelined produces — against a server
// capped at serverMax with a client capped at clientMax, asserting the
// connection negotiates to wantVersion. It is the interop regression
// harness: every version pairing must pass the identical suite.
func runWireSuite(t *testing.T, serverMax, clientMax, wantVersion int) {
	t.Helper()
	runWireSuiteFeatures(t, serverMax, clientMax, wantVersion, suiteFeatures{})
}

// suiteFeatures masks individual v2 features out of negotiation on
// either side; the suite must pass identically through every fallback.
type suiteFeatures struct {
	serverNoMeta, clientNoMeta       bool
	serverNoSession, clientNoSession bool
	serverNoPush, clientNoPush       bool
	serverNoRepl, clientNoRepl       bool
	serverNoStats, clientNoStats     bool
}

// runWireSuiteFeatures runs the interop suite with the given feature
// masks applied.
func runWireSuiteFeatures(t *testing.T, serverMax, clientMax, wantVersion int, sf suiteFeatures) {
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
	s.MaxVersion = serverMax
	s.DisableClusterMeta = sf.serverNoMeta
	s.DisableSessionFetch = sf.serverNoSession
	s.DisableMetaPush = sf.serverNoPush
	s.DisableReplication = sf.serverNoRepl
	s.DisableStats = sf.serverNoStats
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := DialOptions(addr, Options{
		Anonymous: true, MaxVersion: clientMax, PoolSize: 2,
		DisableClusterMeta:  sf.clientNoMeta,
		DisableSessionFetch: sf.clientNoSession, DisableMetaPush: sf.clientNoPush,
		DisableReplication: sf.clientNoRepl, DisableStats: sf.clientNoStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.ProtocolVersion(); v != wantVersion {
		t.Fatalf("negotiated v%d, want v%d (server max %d, client max %d)", v, wantVersion, serverMax, clientMax)
	}
	wantMeta := wantVersion >= ProtocolV2 && !sf.serverNoMeta && !sf.clientNoMeta
	if gotMeta := c.RouterEnabled(); gotMeta != wantMeta {
		t.Fatalf("metadata routing enabled = %v, want %v", gotMeta, wantMeta)
	}
	wantSession := wantVersion >= ProtocolV2 && !sf.serverNoSession && !sf.clientNoSession
	if gotSession := c.Features()&FeatSessionFetch != 0; gotSession != wantSession {
		t.Fatalf("session fetch negotiated = %v, want %v", gotSession, wantSession)
	}
	wantPush := wantVersion >= ProtocolV2 && !sf.serverNoPush && !sf.clientNoPush
	if gotPush := c.Features()&FeatMetaPush != 0; gotPush != wantPush {
		t.Fatalf("metadata push negotiated = %v, want %v", gotPush, wantPush)
	}
	wantRepl := wantVersion >= ProtocolV2 && !sf.serverNoRepl && !sf.clientNoRepl
	if gotRepl := c.Features()&FeatReplication != 0; gotRepl != wantRepl {
		t.Fatalf("replication negotiated = %v, want %v", gotRepl, wantRepl)
	}
	wantStats := wantVersion >= ProtocolV2 && !sf.serverNoStats && !sf.clientNoStats
	if gotStats := c.Features()&FeatStats != 0; gotStats != wantStats {
		t.Fatalf("stats negotiated = %v, want %v", gotStats, wantStats)
	}
	if wantVersion >= ProtocolV2 && !wantRepl {
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
	// stamped contiguously per partition (the dense-run decode path on
	// v2, the legacy array on v1).
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

	// Typed sentinels survive the transport in both protocol versions.
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

// TestInteropV2ClientV1Server: a current client against a legacy
// server negotiates down to v1 JSON framing and passes the full suite.
func TestInteropV2ClientV1Server(t *testing.T) {
	runWireSuite(t, ProtocolV1, ProtocolV2, ProtocolV1)
}

// TestInteropV1ClientV2Server: a legacy client (which never sends
// OpNegotiate) against a current server is served in v1 framing.
func TestInteropV1ClientV2Server(t *testing.T) {
	runWireSuite(t, ProtocolV2, ProtocolV1, ProtocolV1)
}

// TestInteropV2V2 anchors the same suite on the all-current pairing
// (fetch sessions negotiated and active).
func TestInteropV2V2(t *testing.T) {
	runWireSuite(t, ProtocolV2, ProtocolV2, ProtocolV2)
}

// TestInteropClusterMetaOffServerSide: a current client against a v2
// server that predates cluster metadata discovery (OpMetadata answered
// as unknown op) falls back to single-address slot hashing and passes
// the identical suite.
func TestInteropClusterMetaOffServerSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{serverNoMeta: true})
}

// TestInteropClusterMetaOffClientSide: a client that masks
// FeatClusterMeta never fetches metadata and slot-hashes over its seed
// address against a cluster-capable server, passing the identical
// suite.
func TestInteropClusterMetaOffClientSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{clientNoMeta: true})
}

// TestInteropSessionOffServerSide: a current client against a v2
// server that predates multiplexed fetch sessions falls back to
// pipelined request/response long-poll fetch and passes the identical
// suite.
func TestInteropSessionOffServerSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{serverNoSession: true})
}

// TestInteropSessionOffClientSide: a client that masks FeatSessionFetch
// consumes over request/response long-poll fetch from a session-capable
// server, passing the identical suite.
func TestInteropSessionOffClientSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{clientNoSession: true})
}

// TestInteropMetaPushOffServerSide: a server that predates pushed
// metadata serves a current client, which re-routes reactively after
// misrouted requests exactly as before the feature.
func TestInteropMetaPushOffServerSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{serverNoPush: true})
}

// TestInteropMetaPushOffClientSide: a client that masks FeatMetaPush
// never receives pushed metadata and falls back to reactive re-fetch.
func TestInteropMetaPushOffClientSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{clientNoPush: true})
}

// TestInteropReplicationOffServerSide: a server that predates
// inter-broker replication refuses OpReplicaFetch/OpReplicaAck as
// unknown ops while the whole data-plane suite passes unchanged — the
// single-replica behavior every pre-replication pairing had.
func TestInteropReplicationOffServerSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{serverNoRepl: true})
}

// TestInteropReplicationOffClientSide: a client (broker peer) that
// masks FeatReplication gets its replication ops refused by a capable
// server, and everything else serves identically.
func TestInteropReplicationOffClientSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{clientNoRepl: true})
}

// TestInteropStatsOffServerSide: a server that predates the
// observability plane refuses OpStats as an unknown op while the whole
// data-plane suite passes unchanged.
func TestInteropStatsOffServerSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{serverNoStats: true})
}

// TestInteropStatsOffClientSide: a client that masks FeatStats gets
// OpStats refused by a stats-capable server, and everything else
// serves identically.
func TestInteropStatsOffClientSide(t *testing.T) {
	runWireSuiteFeatures(t, ProtocolV2, ProtocolV2, ProtocolV2, suiteFeatures{clientNoStats: true})
}
