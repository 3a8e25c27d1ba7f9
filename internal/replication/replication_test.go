package replication

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// testCluster assembles a 3-broker fabric with the replication
// subsystem attached in-process: one Tracker, one Manager per broker
// pulling through LocalClient.
func testCluster(t *testing.T, cfg Config, minISR int) (*broker.Fabric, *Tracker, map[int]*Manager) {
	t.Helper()
	f := broker.NewFabric(nil)
	f.MinInsyncReplicas = minISR
	if err := f.AddBrokers(3, 4, 16); err != nil {
		t.Fatalf("AddBrokers: %v", err)
	}
	tr := NewTracker(f, cfg)
	f.SetReplicator(tr)
	mgrs := make(map[int]*Manager)
	for _, id := range f.NodeIDs() {
		mgrs[id] = NewManager(f, id, LocalClient{F: f}, cfg)
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Stop()
		}
	})
	return f, tr, mgrs
}

func startAll(mgrs map[int]*Manager) {
	for _, m := range mgrs {
		m.Start()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func produceN(t *testing.T, f *broker.Fabric, topic string, n int, acks broker.Acks) {
	t.Helper()
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Value: []byte(fmt.Sprintf("v%03d", i))}
	}
	if _, err := f.Produce("", topic, 0, evs, acks); err != nil {
		t.Fatalf("produce: %v", err)
	}
}

func partMeta(t *testing.T, f *broker.Fabric, topic string) cluster.PartitionMeta {
	t.Helper()
	meta, err := f.Ctl.Topic(topic)
	if err != nil {
		t.Fatalf("Topic: %v", err)
	}
	return meta.Partitions[0]
}

func TestReplicateAcksAll(t *testing.T) {
	f, tr, mgrs := testCluster(t, Config{}, 2)
	if _, err := f.CreateTopic("orders", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	startAll(mgrs)

	produceN(t, f, "orders", 20, broker.AcksAll)

	pm := partMeta(t, f, "orders")
	tp := broker.TP{Topic: "orders", Partition: 0}
	hw, ok := tr.HighWatermark(tp)
	if !ok || hw != 20 {
		t.Fatalf("hw = %d, %v; want 20", hw, ok)
	}
	// Every replica's log converged to the leader's 20 events, at the
	// leader-assigned offsets.
	for _, id := range pm.Replicas {
		n, _ := f.Node(id)
		waitFor(t, fmt.Sprintf("broker %d catch-up", id), func() bool {
			l, ok := n.ReplicaLog(tp)
			return ok && l.EndOffset() == 20
		})
		l, _ := n.ReplicaLog(tp)
		evs, err := l.Read(0, 20)
		if err != nil || len(evs) != 20 {
			t.Fatalf("broker %d read: %d events, %v", id, len(evs), err)
		}
		for i, ev := range evs {
			if ev.Offset != int64(i) || string(ev.Value) != fmt.Sprintf("v%03d", i) {
				t.Fatalf("broker %d event %d: offset %d value %q", id, i, ev.Offset, ev.Value)
			}
		}
	}
	st, ok := tr.Status(tp)
	if !ok || st.HighWatermark != 20 || st.LogEnd != 20 {
		t.Fatalf("status = %+v, %v", st, ok)
	}
	if got := f.Metrics.Gauge("replication.under_replicated").Value(); got != 0 {
		t.Fatalf("under_replicated = %d", got)
	}
}

func TestAcksAllShrinksLaggardsToMin(t *testing.T) {
	// No managers running: followers never ack. With min.insync=1 the
	// commit timeout shrinks the ISR down to the leader and the produce
	// still succeeds — the interop fallback to single-replica operation.
	f, tr, _ := testCluster(t, Config{CommitTimeout: 50 * time.Millisecond}, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	produceN(t, f, "t", 5, broker.AcksAll)

	pm := partMeta(t, f, "t")
	if len(pm.ISR) != 1 || pm.ISR[0] != pm.Leader {
		t.Fatalf("ISR = %v, leader %d; want leader only", pm.ISR, pm.Leader)
	}
	tp := broker.TP{Topic: "t", Partition: 0}
	if hw, _ := tr.HighWatermark(tp); hw != 5 {
		t.Fatalf("hw = %d after shrink; want 5", hw)
	}
	if got := f.Metrics.Gauge("replication.under_replicated").Value(); got != 1 {
		t.Fatalf("under_replicated = %d; want 1", got)
	}
}

func TestAcksAllFailsBelowMinISR(t *testing.T) {
	// min.insync=2 with no followers acking: the shrink stops at 2 but
	// the HW cannot pass the batch, so acks=all fails.
	f, _, _ := testCluster(t, Config{CommitTimeout: 50 * time.Millisecond}, 2)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	evs := []event.Event{{Value: []byte("x")}}
	_, err := f.Produce("", "t", 0, evs, broker.AcksAll)
	if !errors.Is(err, broker.ErrNotEnoughReplicas) {
		t.Fatalf("err = %v; want ErrNotEnoughReplicas", err)
	}
	// acks=leader still works: the leader log took the append.
	if _, err := f.Produce("", "t", 0, evs, broker.AcksLeader); err != nil {
		t.Fatalf("acks=leader after failed acks=all: %v", err)
	}
}

func TestReplicaFetchFencesStaleEpoch(t *testing.T) {
	f, _, _ := testCluster(t, Config{}, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	pm := partMeta(t, f, "t")
	follower := -1
	for _, id := range pm.Replicas {
		if id != pm.Leader {
			follower = id
			break
		}
	}
	if _, err := f.ReplicaFetch("", follower, "t", 0, pm.LeaderEpoch+1, 0, 10, 0, 0, nil, &eventlog.Encoded{}); !errors.Is(err, broker.ErrFencedEpoch) {
		t.Fatalf("future epoch fetch: %v; want ErrFencedEpoch", err)
	}
	if err := f.ReplicaAck("", follower, "t", 0, pm.LeaderEpoch-1, 3); !errors.Is(err, broker.ErrFencedEpoch) {
		t.Fatalf("stale epoch ack: %v; want ErrFencedEpoch", err)
	}
	if _, err := f.ReplicaFetch("", follower, "t", 0, pm.LeaderEpoch, 0, 10, 0, 0, nil, &eventlog.Encoded{}); err != nil {
		t.Fatalf("current epoch fetch: %v", err)
	}
}

func TestEvictedFollowerCatchesUpAndRejoins(t *testing.T) {
	cfg := Config{CommitTimeout: 50 * time.Millisecond}
	f, tr, mgrs := testCluster(t, cfg, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	// Phase 1: no managers. acks=all evicts both followers.
	produceN(t, f, "t", 10, broker.AcksAll)
	pm := partMeta(t, f, "t")
	if len(pm.ISR) != 1 {
		t.Fatalf("ISR after eviction = %v", pm.ISR)
	}
	// Phase 2: start the fetch loops. Followers catch up to the leader
	// log end and the tracker expands them back into the ISR.
	startAll(mgrs)
	waitFor(t, "ISR re-expansion", func() bool {
		return len(partMeta(t, f, "t").ISR) == 3
	})
	tp := broker.TP{Topic: "t", Partition: 0}
	if hw, _ := tr.HighWatermark(tp); hw != 10 {
		t.Fatalf("hw = %d; want 10", hw)
	}
	// And acks=all is healthy again end to end.
	produceN(t, f, "t", 5, broker.AcksAll)
	if hw, _ := tr.HighWatermark(tp); hw != 15 {
		t.Fatalf("hw after second produce = %d; want 15", hw)
	}
}

func TestFollowerTruncatesDivergedTail(t *testing.T) {
	f, _, mgrs := testCluster(t, Config{}, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	// Replicate 5 records everywhere, then stop one follower's loops and
	// fabricate a diverged tail on it: records past the leader's log end
	// that were never acked (an un-replicated tail from a dead leader).
	startAll(mgrs)
	produceN(t, f, "t", 5, broker.AcksAll)
	pm := partMeta(t, f, "t")
	follower := -1
	for _, id := range pm.Replicas {
		if id != pm.Leader {
			follower = id
			break
		}
	}
	mgrs[follower].Stop()
	fl, err := f.BrokerLog(follower, "t", 0)
	if err != nil {
		t.Fatalf("BrokerLog: %v", err)
	}
	waitFor(t, "follower baseline", func() bool { return fl.EndOffset() == 5 })
	stale := make([]event.Event, 8)
	for i := range stale {
		stale[i] = event.Event{Offset: int64(5 + i), Value: []byte("stale")}
	}
	if err := fl.AppendReplicated(stale); err != nil {
		t.Fatalf("seed diverged tail: %v", err)
	}
	if fl.EndOffset() != 13 {
		t.Fatalf("diverged end = %d", fl.EndOffset())
	}
	mgrs[follower].Start()
	waitFor(t, "diverged tail truncation", func() bool {
		return fl.EndOffset() == 5
	})
	evs, err := fl.Read(0, 10)
	if err != nil || len(evs) != 5 {
		t.Fatalf("post-truncate read: %d events, %v", len(evs), err)
	}
	for i, ev := range evs {
		if string(ev.Value) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("event %d = %q; want leader's record", i, ev.Value)
		}
	}
}

func TestLeaderFailoverNewEpochFencesOldFetches(t *testing.T) {
	f, _, mgrs := testCluster(t, Config{}, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	startAll(mgrs)
	produceN(t, f, "t", 10, broker.AcksAll)
	pm := partMeta(t, f, "t")
	oldLeader, oldEpoch := pm.Leader, pm.LeaderEpoch

	if err := f.CrashBroker(oldLeader); err != nil {
		t.Fatalf("CrashBroker: %v", err)
	}
	waitFor(t, "new leader election", func() bool {
		pm := partMeta(t, f, "t")
		return pm.Leader >= 0 && pm.Leader != oldLeader
	})
	pm = partMeta(t, f, "t")
	if pm.LeaderEpoch <= oldEpoch {
		t.Fatalf("epoch %d after failover; want > %d", pm.LeaderEpoch, oldEpoch)
	}
	// A fetch still carrying the old epoch is fenced by the new leader.
	if _, err := f.ReplicaFetch("", oldLeader, "t", 0, oldEpoch, 10, 10, 0, 0, nil, &eventlog.Encoded{}); !errors.Is(err, broker.ErrFencedEpoch) {
		t.Fatalf("stale epoch after failover: %v; want ErrFencedEpoch", err)
	}
	// The surviving replicas keep serving: all 10 acked events are on
	// the new leader, and new produces land.
	res, err := f.Fetch("", "t", 0, 0, 100, 0)
	if err != nil || len(res.Events) != 10 {
		t.Fatalf("fetch after failover: %d events, %v", len(res.Events), err)
	}
	produceN(t, f, "t", 3, broker.AcksAll)
	waitFor(t, "post-failover replication", func() bool {
		pm := partMeta(t, f, "t")
		for _, id := range pm.ISR {
			if id == pm.Leader {
				continue
			}
			n, _ := f.Node(id)
			l, ok := n.ReplicaLog(broker.TP{Topic: "t", Partition: 0})
			if !ok || l.EndOffset() != 13 {
				return false
			}
		}
		return len(pm.ISR) >= 2
	})
}

// TestFollowerLogLookupSkipsController pins the lookup every follower
// fetch round starts with: once a replica log is open, Fabric.BrokerLog
// hands it back without reading the topic's metadata from the
// controller (a JSON decode per round), so the call allocates nothing
// and still answers when the metadata is gone.
func TestFollowerLogLookupSkipsController(t *testing.T) {
	f, _, _ := testCluster(t, Config{}, 1)
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 2, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	pm := partMeta(t, f, "t")
	follower := pm.Replicas[len(pm.Replicas)-1]
	opened, err := f.BrokerLog(follower, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.BrokerLog(follower, "t", 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("BrokerLog on an open log allocates %.1f times, want 0", allocs)
	}
	if err := f.Ctl.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	got, err := f.BrokerLog(follower, "t", 0)
	if err != nil || got != opened {
		t.Fatalf("BrokerLog after the metadata went = %p, %v; want the open log %p", got, err, opened)
	}
	// A log that is not open yet still needs the metadata to open it.
	if _, err := f.BrokerLog(follower, "t", 1); err == nil {
		t.Fatal("BrokerLog opened a log for a topic the controller no longer has")
	}
}

// TestCaughtUpFollowerParksOnLeaderLog pins the replica long-poll: a
// caught-up follower's fetch parks on the leader log instead of
// re-reading it, so an idle partition costs the leader no reads, and an
// append wakes the parked fetch at once rather than when FetchWait
// lapses.
func TestCaughtUpFollowerParksOnLeaderLog(t *testing.T) {
	const fetchWait = 5 * time.Second
	f, _, mgrs := testCluster(t, Config{FetchWait: fetchWait}, 1)
	if _, err := f.CreateTopic("idle", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 3}); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	startAll(mgrs)
	produceN(t, f, "idle", 3, broker.AcksAll)
	pm := partMeta(t, f, "idle")
	tp := broker.TP{Topic: "idle", Partition: 0}
	caughtUp := func(end int64) func() bool {
		return func() bool {
			for _, id := range pm.Replicas {
				n, _ := f.Node(id)
				if l, ok := n.ReplicaLog(tp); !ok || l.EndOffset() != end {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, "followers caught up", caughtUp(3))
	leader, err := f.LeaderLog("idle", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The followers' next fetches read the leader log once, find it dry
	// and park; wait until the read count settles.
	waitFor(t, "follower fetches parked", func() bool {
		before := leader.Reads()
		time.Sleep(50 * time.Millisecond)
		return leader.Reads() == before
	})
	before := leader.Reads()
	time.Sleep(300 * time.Millisecond)
	if delta := leader.Reads() - before; delta != 0 {
		t.Fatalf("caught-up followers performed %d leader log reads while idle", delta)
	}

	start := time.Now()
	produceN(t, f, "idle", 1, broker.AcksLeader)
	waitFor(t, "append replicated", caughtUp(4))
	if d := time.Since(start); d > fetchWait/5 {
		t.Fatalf("append reached the followers after %v: the parked fetch was not woken (FetchWait %v)", d, fetchWait)
	}

	// In-process fetches carry no stop channel, so stopping the managers
	// waits for their parked fetches: wake them with appends until every
	// manager is down.
	stopped := make(chan struct{})
	go func() {
		for _, m := range mgrs {
			m.Stop()
		}
		close(stopped)
	}()
	for {
		select {
		case <-stopped:
			return
		case <-time.After(10 * time.Millisecond):
			produceN(t, f, "idle", 1, broker.AcksLeader)
		}
	}
}
