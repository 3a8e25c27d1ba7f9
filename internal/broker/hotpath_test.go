package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/event"
)

func sized(n int, tag string) event.Event {
	v := make([]byte, n)
	copy(v, tag)
	return event.Event{Value: v}
}

func TestFetchMaxBytesSemantics(t *testing.T) {
	f := newFabric(t, 1)
	mkTopic(t, f, "t", 1, 1)
	batch := []event.Event{sized(100, "a"), sized(200, "b"), sized(50, "c"), sized(400, "d")}
	if _, err := f.Produce("", "t", 0, batch, AcksLeader); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		maxBytes int
		want     int
	}{
		{1, 1},   // budget below the first event: still one event
		{100, 1}, // first event exactly consumes the budget
		{300, 1}, // 100+200 reaches the budget: second excluded
		{301, 2},
		{351, 3},
		{0, 4}, // no byte budget
	}
	for _, c := range cases {
		res, err := f.Fetch("", "t", 0, 0, 100, c.maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) != c.want {
			t.Fatalf("Fetch(maxBytes=%d) len = %d, want %d", c.maxBytes, len(res.Events), c.want)
		}
		if c.maxBytes > 0 && len(res.Events) > 1 {
			total := 0
			for i := range res.Events {
				total += res.Events[i].Size()
			}
			if total >= c.maxBytes {
				t.Fatalf("Fetch(maxBytes=%d) returned %d bytes: over budget beyond the first event", c.maxBytes, total)
			}
		}
	}
	// Fabric.Fetch and Log.ReadBytes agree cut-for-cut.
	for _, budget := range []int{1, 99, 100, 150, 300, 301, 350, 351, 750, 751} {
		res, err := f.Fetch("", "t", 0, 0, 100, budget)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := f.partitionRoute("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := pr.log.ReadBytes(0, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) != len(direct) {
			t.Fatalf("budget=%d: Fetch returned %d events, ReadBytes %d", budget, len(res.Events), len(direct))
		}
	}
}

// TestFailoverAfterCacheWarm exercises the epoch invalidation of the
// routing cache: once produce/fetch have warmed the (topic, partition) →
// leader-log cache, a leader failure must re-route the very next call to
// the newly elected leader, and a restart must restore the original
// replica to service.
func TestFailoverAfterCacheWarm(t *testing.T) {
	f := newFabric(t, 3)
	mkTopic(t, f, "t", 1, 2)
	pm, err := f.Ctl.Partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldLeader := pm.Leader

	// Warm the routing cache on both paths.
	if _, err := f.Produce("", "t", 0, evs(10, "warm"), AcksLeader); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch("", "t", 0, 0, 100, 0); err != nil {
		t.Fatal(err)
	}

	if err := f.StopBroker(oldLeader); err != nil {
		t.Fatal(err)
	}
	pm, err = f.Ctl.Partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Leader == oldLeader || pm.Leader < 0 {
		t.Fatalf("leader after failover = %d (old %d)", pm.Leader, oldLeader)
	}

	// The warmed cache must not route to the dead broker: the next
	// produce and fetch go straight to the new leader with no error.
	if _, err := f.Produce("", "t", 0, evs(5, "post-failover"), AcksLeader); err != nil {
		t.Fatalf("produce after failover: %v", err)
	}
	res, err := f.Fetch("", "t", 0, 0, 100, 0)
	if err != nil {
		t.Fatalf("fetch after failover: %v", err)
	}
	if len(res.Events) != 15 {
		t.Fatalf("events after failover = %d, want 15 (replication must be lossless)", len(res.Events))
	}
	newLeaderNode, _ := f.Node(pm.Leader)
	if l, ok := newLeaderNode.existingLog(TP{Topic: "t", Partition: 0}); !ok || l.EndOffset() != 15 {
		t.Fatal("post-failover writes did not land on the new leader's log")
	}

	// Restart: the old broker catches up, rejoins the ISR, and the cache
	// follows the next epoch bump.
	if err := f.RestartBroker(oldLeader); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Produce("", "t", 0, evs(5, "post-restart"), AcksLeader); err != nil {
		t.Fatal(err)
	}
	res, err = f.Fetch("", "t", 0, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 20 {
		t.Fatalf("events after restart = %d, want 20", len(res.Events))
	}
	// The restarted replica replicated the post-restart batch.
	oldNode, _ := f.Node(oldLeader)
	if l, ok := oldNode.existingLog(TP{Topic: "t", Partition: 0}); !ok || l.EndOffset() != 20 {
		end := int64(-1)
		if ok {
			end = l.EndOffset()
		}
		t.Fatalf("restarted replica end = %d, want 20", end)
	}
}

// TestConcurrentProduceFetchWithFailover hammers the cached hot path from
// many goroutines while a broker bounces, for the race detector: cache
// rebuilds, arena clones and log appends must all be data-race free, and
// the only acceptable produce error is leader unavailability during the
// failover window.
func TestConcurrentProduceFetchWithFailover(t *testing.T) {
	f := newFabric(t, 3)
	mkTopic(t, f, "t", 2, 2)
	const producers, batches = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				batch := []event.Event{
					{Key: []byte(fmt.Sprintf("k%d", g)), Value: []byte(fmt.Sprintf("g%d-%d", g, i))},
					{Value: []byte(fmt.Sprintf("u%d-%d", g, i))},
				}
				if _, err := f.Produce("", "t", -1, batch, AcksLeader); err != nil &&
					!errors.Is(err, ErrLeaderUnavailable) {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var off int64
			for i := 0; i < batches; i++ {
				res, err := f.Fetch("", "t", p, off, 64, 4096)
				if err != nil {
					if errors.Is(err, ErrLeaderUnavailable) {
						continue
					}
					t.Errorf("fetch: %v", err)
					return
				}
				for _, e := range res.Events {
					if e.Offset < off {
						t.Errorf("fetch went backwards: %d < %d", e.Offset, off)
						return
					}
					off = e.Offset + 1
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := f.StopBroker(1); err != nil {
				t.Errorf("stop: %v", err)
				return
			}
			if err := f.RestartBroker(1); err != nil {
				t.Errorf("restart: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestProduceDoesNotAliasCallerBuffers pins the arena-clone contract: the
// producer may reuse its Key/Value buffers after Produce returns without
// corrupting stored records (the guarantee per-event Clone used to give).
func TestProduceDoesNotAliasCallerBuffers(t *testing.T) {
	f := newFabric(t, 1)
	mkTopic(t, f, "t", 1, 1)
	key := []byte("stable-key")
	val := []byte("stable-value")
	if _, err := f.Produce("", "t", 0, []event.Event{{Key: key, Value: val}}, AcksLeader); err != nil {
		t.Fatal(err)
	}
	copy(key, "XXXXXX")
	copy(val, "YYYYYY")
	res, err := f.Fetch("", "t", 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Events[0].Key) != "stable-key" || string(res.Events[0].Value) != "stable-value" {
		t.Fatalf("stored record aliases caller buffers: %q/%q", res.Events[0].Key, res.Events[0].Value)
	}
}

// TestRouteCacheEvictsDeletedTopics pins the churn behavior: deleting a
// topic must not leave its routing entry pinned in the cache forever.
func TestRouteCacheEvictsDeletedTopics(t *testing.T) {
	f := newFabric(t, 1)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("job-%d", i)
		mkTopic(t, f, name, 1, 1)
		if _, err := f.Produce("", name, 0, evs(1, "x"), AcksLeader); err != nil {
			t.Fatal(err)
		}
		if err := f.Ctl.DeleteTopic(name); err != nil {
			t.Fatal(err)
		}
	}
	// The next route lookup (any topic) replaces the table for the
	// newer snapshot, dropping the dead entries with it.
	mkTopic(t, f, "live", 1, 1)
	if _, err := f.Produce("", "live", 0, evs(1, "x"), AcksLeader); err != nil {
		t.Fatal(err)
	}
	cached := 0
	f.routes.Load().topics.Range(func(k, _ any) bool {
		if k.(string) != "live" {
			t.Fatalf("deleted topic %q still cached", k)
		}
		cached++
		return true
	})
	if cached != 1 {
		t.Fatalf("cache holds %d entries, want 1", cached)
	}
}

// TestRouteCacheFollowsPartitionGrowth covers the non-failover
// invalidation path: growing a topic's partition count must be visible
// to the next produce against the new partition.
func TestRouteCacheFollowsPartitionGrowth(t *testing.T) {
	f := newFabric(t, 2)
	mkTopic(t, f, "t", 1, 1)
	if _, err := f.Produce("", "t", 0, evs(1, "warm"), AcksLeader); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Produce("", "t", 1, evs(1, "nope"), AcksLeader); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("produce to missing partition: %v", err)
	}
	if _, err := f.Ctl.SetPartitions("t", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Produce("", "t", 2, evs(1, "grown"), AcksLeader); err != nil {
		t.Fatalf("produce to grown partition: %v", err)
	}
	if end, err := f.EndOffset("t", 2); err != nil || end != 1 {
		t.Fatalf("end = %d, %v", end, err)
	}
}
