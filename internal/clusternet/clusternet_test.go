package clusternet

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
	"repro/internal/wire"
)

// startCluster brings up an n-broker fabric with per-broker listeners,
// followers replicating over the wire, and one topic of parts
// partitions at replication factor rf.
func startCluster(t *testing.T, n int, topic string, parts, rf int) (*Cluster, *broker.Fabric) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(n, 2, 8); err != nil {
		t.Fatal(err)
	}
	c, err := Serve(f, Options{AllowAnonymous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts, ReplicationFactor: rf}); err != nil {
		t.Fatal(err)
	}
	return c, f
}

// dialSeed connects a leader-direct client through one broker's
// advertised address.
func dialSeed(t *testing.T, c *Cluster, id int) *wire.Client {
	t.Helper()
	wc, err := wire.DialOptions(c.Addr(id), wire.Options{Anonymous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	if !wc.RouterEnabled() {
		t.Fatal("cluster metadata routing not enabled on a current pairing")
	}
	return wc
}

// TestLeaderDirectSteadyState drives the full SDK pipeline — keyed and
// unkeyed batched produce, grouped streaming consume, offset queries —
// against a 3-broker cluster and asserts not one data-plane request
// missed its partition leader: the acceptance bar for leader-direct
// routing is a misroute counter pinned at zero.
func TestLeaderDirectSteadyState(t *testing.T) {
	cl, _ := startCluster(t, 3, "steady", 6, 2)
	wc := dialSeed(t, cl, 0)

	const total = 600
	p := client.NewProducer(wc, "steady", client.ProducerConfig{BatchEvents: 32})
	for i := 0; i < total; i++ {
		key := ""
		if i%2 == 0 {
			key = fmt.Sprintf("k%d", i%13) // half keyed, half round-robin
		}
		if err := p.Send(event.Event{Key: []byte(key), Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	cons := client.NewConsumer(wc, client.ConsumerConfig{
		Group: "g", Start: client.StartEarliest, AutoCommit: true, Prefetch: true,
	})
	defer cons.Close()
	if err := cons.Subscribe("steady"); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(15 * time.Second)
	for got < total && time.Now().Before(deadline) {
		evs, err := cons.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		got += len(evs)
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
	for pt := 0; pt < 6; pt++ {
		if _, err := wc.EndOffset("steady", pt); err != nil {
			t.Fatal(err)
		}
	}
	if n := cl.Misroutes(); n != 0 {
		t.Fatalf("steady-state misroutes = %d, want 0", n)
	}
}

// TestFailoverMidProduce kills a partition leader while producers are
// mid-flight and asserts zero acked-event loss: every acks=all produce
// the client saw succeed is readable from the re-elected leader, and
// the surviving cluster serves the remainder of the workload. (An
// acks=leader ack promises nothing once followers replicate
// asynchronously: the leader can die before any follower fetched it.)
func TestFailoverMidProduce(t *testing.T) {
	cl, f := startCluster(t, 3, "fp", 3, 2)
	wc := dialSeed(t, cl, 0)

	// Find partition 0's leader so the kill provably hits an active
	// produce target.
	leader, err := f.PartitionLeader("fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Seed through a different broker, so the seed survives the kill.
	seedID := (leader + 1) % 3
	wc.Close()
	wc = dialSeed(t, cl, seedID)

	var (
		mu    sync.Mutex
		acked []string
	)
	produce := func(i int) error {
		val := fmt.Sprintf("v%d", i)
		_, err := wc.Produce("", "fp", 0, []event.Event{{Value: []byte(val)}}, broker.AcksAll)
		if err == nil {
			mu.Lock()
			acked = append(acked, val)
			mu.Unlock()
		}
		return err
	}
	const total = 200
	for i := 0; i < total; i++ {
		if i == total/2 {
			if err := cl.StopBroker(leader); err != nil {
				t.Fatal(err)
			}
		}
		if err := produce(i); err != nil {
			// A produce that raced the kill may fail; it is not acked, so
			// losing it is allowed — but the client must recover by the
			// next call (metadata refresh + reroute), so more than a
			// couple of failures means rerouting is broken.
			if !errors.Is(err, wire.ErrNotLeader) {
				t.Fatalf("produce %d failed with non-failover error: %v", i, err)
			}
		}
	}
	mu.Lock()
	ackedCount := len(acked)
	mu.Unlock()
	if ackedCount < total-3 {
		t.Fatalf("only %d of %d produces acked: reroute did not recover", ackedCount, total)
	}

	// Every acked event must be present on the new leader.
	end, err := wc.EndOffset("fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var buf broker.FetchBuffer
	for off := int64(0); off < end; {
		// Wait for the push: a zero-wait fetch on a fresh session
		// subscription may return before the first batch lands.
		res, err := wc.FetchBufferedWait("", "fp", 0, off, 500, 1<<20, 5*time.Second, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("empty fetch at %d below end %d", off, end)
		}
		for _, ev := range res.Events {
			seen[string(ev.Value)] = true
			off = ev.Offset + 1
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, val := range acked {
		if !seen[val] {
			t.Fatalf("acked event %q lost after leader failover", val)
		}
	}
}

// TestFailoverMidStream kills the leader under an active session-push
// consumer and asserts the subscription transparently re-subscribes
// against the re-elected leader with no gap and no duplicate: the
// consumer's offsets stay contiguous through the failover, and
// everything produced — before and after the kill — is delivered.
// Produces are acks=all, so every event the consumer can read before
// the kill is already on the follower that takes over.
func TestFailoverMidStream(t *testing.T) {
	cl, f := startCluster(t, 3, "fs", 1, 2)
	leader, err := f.PartitionLeader("fs", 0)
	if err != nil {
		t.Fatal(err)
	}
	seedID := (leader + 1) % 3
	wc := dialSeed(t, cl, seedID)

	const before, after = 1000, 500
	evs := make([]event.Event, 100)
	mk := func(base int) {
		for i := range evs {
			evs[i] = event.Event{Value: []byte(fmt.Sprintf("v%d", base+i))}
		}
	}
	for n := 0; n < before; n += len(evs) {
		mk(n)
		if _, err := wc.Produce("", "fs", 0, evs, broker.AcksAll); err != nil {
			t.Fatal(err)
		}
	}

	cons := client.NewConsumer(wc, client.ConsumerConfig{
		Start: client.StartEarliest, Prefetch: true,
		MaxPollEvents: 100, PollWait: 50 * time.Millisecond,
	})
	defer cons.Close()
	if err := cons.Assign("fs", 0); err != nil {
		t.Fatal(err)
	}

	var off int64
	poll := func(deadlineAt time.Time, want int64) {
		for off < want && time.Now().Before(deadlineAt) {
			polled, err := cons.Poll(100)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range polled {
				if ev.Offset != off {
					t.Fatalf("offset %d after %d: session reroute broke contiguity", ev.Offset, off)
				}
				if want := fmt.Sprintf("v%d", off); string(ev.Value) != want {
					t.Fatalf("event %d value %q, want %q", off, ev.Value, want)
				}
				off++
			}
		}
	}

	// Drain half the backlog through the session, then kill the leader.
	poll(time.Now().Add(10*time.Second), before/2)
	if off < before/2 {
		t.Fatalf("pre-failover consumption stalled at %d", off)
	}
	if err := cl.StopBroker(leader); err != nil {
		t.Fatal(err)
	}

	// The rest of the backlog (replicated before the kill) plus fresh
	// produces against the new leader must all arrive, contiguously.
	for n := before; n < before+after; n += len(evs) {
		mk(n)
		if _, err := wc.Produce("", "fs", 0, evs, broker.AcksAll); err != nil {
			t.Fatalf("produce after failover: %v", err)
		}
	}
	poll(time.Now().Add(15*time.Second), before+after)
	if off != before+after {
		t.Fatalf("consumed %d of %d through the failover", off, before+after)
	}
}

// TestRestartRejoins stops a broker, runs traffic without it, restarts
// it, and asserts it catches up and serves again: a full produce/fetch
// cycle lands on it once it re-wins leadership of a leaderless
// partition, and the cluster's advertised metadata reflects every
// transition.
func TestRestartRejoins(t *testing.T) {
	cl, f := startCluster(t, 3, "rr", 3, 2)
	wc := dialSeed(t, cl, 0)

	if _, err := wc.Produce("", "rr", 0, []event.Event{{Value: []byte("a")}}, broker.AcksAll); err != nil {
		t.Fatal(err)
	}
	victim, err := f.PartitionLeader("rr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if victim == 0 {
		wc.Close()
		wc = dialSeed(t, cl, 1)
	}
	if err := cl.StopBroker(victim); err != nil {
		t.Fatal(err)
	}
	meta, err := wc.ClusterMetadata()
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range meta.Brokers {
		if br.ID == victim && br.Up {
			t.Fatalf("metadata lists stopped broker %d as up", victim)
		}
	}
	if _, err := wc.Produce("", "rr", 0, []event.Event{{Value: []byte("b")}}, broker.AcksAll); err != nil {
		t.Fatalf("produce after failover: %v", err)
	}

	if err := cl.RestartBroker(victim); err != nil {
		t.Fatal(err)
	}
	meta, err = wc.ClusterMetadata()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, br := range meta.Brokers {
		if br.ID == victim {
			found = true
			if !br.Up {
				t.Fatalf("metadata lists restarted broker %d as down", victim)
			}
			if br.Addr != cl.Addr(victim) {
				t.Fatalf("restarted broker advertises %q, cluster says %q", br.Addr, cl.Addr(victim))
			}
		}
	}
	if !found {
		t.Fatalf("restarted broker %d missing from metadata", victim)
	}
	// The restarted replica caught up: both produced events are on it.
	n, ok := f.Node(victim)
	if !ok {
		t.Fatalf("unknown broker %d", victim)
	}
	log, ok := n.ReplicaLog(broker.TP{Topic: "rr", Partition: 0})
	if !ok {
		t.Fatal("restarted broker lost its replica log")
	}
	if end := log.EndOffset(); end != 2 {
		t.Fatalf("restarted replica end offset %d, want 2", end)
	}
}

// TestDrainWithMetadataPush is the acceptance gate for pushed metadata:
// a client with open fetch sessions on every broker rides a graceful
// leadership drain of one of them, then a full produce/consume pass,
// with ZERO failed round trips and ZERO misroutes — the push re-routes
// it before any request can miss.
func TestDrainWithMetadataPush(t *testing.T) {
	const parts, perPart = 4, 50
	cl, f := startCluster(t, 3, "dr", parts, 2)
	wc, err := wire.DialOptions(cl.Addr(0), wire.Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// Open a live fetch session against every partition leader.
	for p := 0; p < parts; p++ {
		evs := make([]event.Event, perPart)
		for i := range evs {
			evs[i] = event.Event{Value: []byte(fmt.Sprintf("p%d-%d", p, i))}
		}
		if _, err := wc.Produce("", "dr", p, evs, broker.AcksAll); err != nil {
			t.Fatal(err)
		}
	}
	offs := make([]int64, parts)
	var buf broker.FetchBuffer
	consume := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			done := true
			for p := 0; p < parts; p++ {
				if offs[p] >= want {
					continue
				}
				done = false
				res, err := wc.FetchBuffered("", "dr", p, offs[p], 100, 1<<20, &buf)
				if err != nil {
					t.Fatalf("fetch p%d@%d: %v", p, offs[p], err)
				}
				for _, ev := range res.Events {
					if ev.Offset != offs[p] {
						t.Fatalf("p%d offset %d, want %d", p, ev.Offset, offs[p])
					}
					offs[p]++
				}
			}
			if done {
				return
			}
		}
		t.Fatalf("consumption stalled at %v, want %d per partition", offs, want)
	}
	consume(perPart)
	if n := cl.Misroutes(); n != 0 {
		t.Fatalf("pre-drain misroutes = %d", n)
	}

	// Gracefully drain partition 0's leader: leadership moves, epoch
	// bumps, but the broker (and the client's sessions on it) stay up.
	leader, err := f.PartitionLeader("dr", 0)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := wc.MetadataEpoch()
	if err := cl.DrainBroker(leader); err != nil {
		t.Fatal(err)
	}
	if newLeader, err := f.PartitionLeader("dr", 0); err != nil || newLeader == leader {
		t.Fatalf("leadership did not move off broker %d (now %d, %v)", leader, newLeader, err)
	}
	// The pushed document must land with no data-plane traffic at all:
	// the broker offers it, the client adopts it.
	deadline := time.Now().Add(5 * time.Second)
	for wc.MetadataEpoch() <= epoch0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if wc.MetadataEpoch() <= epoch0 {
		t.Fatal("pushed metadata never adopted after drain")
	}

	// Full post-drain pass: produce into and consume from every
	// partition, including the moved one.
	before := cl.Misroutes()
	for p := 0; p < parts; p++ {
		for i := 0; i < 10; i++ {
			val := fmt.Sprintf("p%d-%d", p, perPart+i)
			if _, err := wc.Produce("", "dr", p, []event.Event{{Value: []byte(val)}}, broker.AcksAll); err != nil {
				t.Fatalf("produce %s after drain: %v", val, err)
			}
		}
	}
	consume(perPart + 10)
	if n := cl.Misroutes() - before; n != 0 {
		t.Fatalf("%d misroutes through a pushed-metadata drain, want 0", n)
	}
}
