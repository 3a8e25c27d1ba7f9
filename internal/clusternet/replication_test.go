package clusternet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/replication"
	"repro/internal/wire"
)

// startReplicated brings up an n-broker cluster with wire-backed
// replication, DataDir-backed replica logs, and one topic.
func startReplicated(t *testing.T, n int, topic string, parts, rf, minISR int, cfg replication.Config) (*Cluster, *broker.Fabric) {
	t.Helper()
	f := broker.NewFabric(nil)
	f.MinInsyncReplicas = minISR
	for i := 0; i < n; i++ {
		if _, err := f.AddBroker(cluster.BrokerInfo{ID: i, VCPUs: 2, MemGB: 8, DataDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Serve(f, Options{AllowAnonymous: true, Replication: true, ReplicationConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts, ReplicationFactor: rf}); err != nil {
		t.Fatal(err)
	}
	return c, f
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func isrSize(t *testing.T, f *broker.Fabric, topic string, p int) int {
	t.Helper()
	meta, err := f.Ctl.Topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	return len(meta.Partitions[p].ISR)
}

// TestReplicatedSteadyState: with replication enabled, acks=all
// produces over the wire commit through real follower fetches, the
// ISR stays full, and consumers read everything back.
func TestReplicatedSteadyState(t *testing.T) {
	cl, f := startReplicated(t, 3, "rs", 1, 3, 2, replication.Config{})
	wc := dialSeed(t, cl, 0)

	const total = 300
	evs := make([]event.Event, 50)
	for n := 0; n < total; n += len(evs) {
		for i := range evs {
			evs[i] = event.Event{Value: []byte(fmt.Sprintf("v%d", n+i))}
		}
		if _, err := wc.Produce("", "rs", 0, evs, broker.AcksAll); err != nil {
			t.Fatalf("acks=all produce at %d: %v", n, err)
		}
	}
	if got := isrSize(t, f, "rs", 0); got != 3 {
		t.Fatalf("ISR size %d after healthy acks=all run; want 3", got)
	}
	st, ok := f.ReplicaStatusFor("rs", 0)
	if !ok || st.HighWatermark != total {
		t.Fatalf("replica status = %+v, %v; want hw %d", st, ok, total)
	}
	res, err := wc.Fetch("", "rs", 0, 0, total, 0)
	if err != nil || len(res.Events) == 0 {
		t.Fatalf("fetch: %d events, %v", len(res.Events), err)
	}
	// The metadata document's trailing replication section reports the
	// same state any client (octopus-cli isr) observes.
	md, err := wc.ClusterMetadata("rs")
	if err != nil {
		t.Fatalf("metadata: %v", err)
	}
	if md.Replication == nil || len(md.Replication.Topics) != 1 {
		t.Fatalf("metadata replication section = %+v", md.Replication)
	}
	rp := md.Replication.Topics[0].Partitions[0]
	if md.Replication.Topics[0].Name != "rs" || rp.ID != 0 || rp.HighWatermark != total || rp.LogEnd != total {
		t.Fatalf("replication section partition = %+v", rp)
	}
	if len(rp.Followers) != 2 {
		t.Fatalf("replication section followers = %+v", rp.Followers)
	}
	// Every replica converged on the same log.
	meta, _ := f.Ctl.Topic("rs")
	for _, id := range meta.Partitions[0].Replicas {
		log, err := f.BrokerLog(id, "rs", 0)
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, fmt.Sprintf("broker %d catch-up", id), 5*time.Second, func() bool {
			return log.EndOffset() == total
		})
	}
}

// TestDurableRecoveryFailover is the PR's acceptance test: a 3-broker
// RF-3 cluster with min.insync.replicas=2 sustains a kill -9 of the
// partition leader mid-produce with zero acked-event loss, and the
// killed broker recovers durably — replaying its on-disk segments,
// catching up over replication fetches, and rejoining the ISR.
func TestDurableRecoveryFailover(t *testing.T) {
	cl, f := startReplicated(t, 3, "dr", 1, 3, 2, replication.Config{CommitTimeout: 5 * time.Second})
	leader, err := f.PartitionLeader("dr", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Seed through a broker that survives the kill.
	wc := dialSeed(t, cl, (leader+1)%3)

	var acked []string
	produce := func(i int) {
		val := fmt.Sprintf("v%d", i)
		_, err := wc.Produce("", "dr", 0, []event.Event{{Value: []byte(val)}}, broker.AcksAll)
		if err == nil {
			acked = append(acked, val)
		}
	}
	const total = 120
	for i := 0; i < total; i++ {
		if i == total/2 {
			if err := cl.HardKillBroker(leader); err != nil {
				t.Fatal(err)
			}
		}
		produce(i)
	}
	if len(acked) < total-5 {
		t.Fatalf("only %d of %d produces acked: failover did not recover", len(acked), total)
	}

	// Zero acked loss: every acked value is on the new leader.
	newLeader, err := f.PartitionLeader("dr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newLeader == leader {
		t.Fatalf("leader %d still leads after kill", leader)
	}
	readValues := func(log interface {
		EndOffset() int64
		Read(int64, int) ([]event.Event, error)
	}) map[string]bool {
		seen := make(map[string]bool)
		evs, err := log.Read(0, int(log.EndOffset()))
		if err != nil {
			t.Fatalf("read replica log: %v", err)
		}
		for _, ev := range evs {
			seen[string(ev.Value)] = true
		}
		return seen
	}
	leaderLog, err := f.BrokerLog(newLeader, "dr", 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := readValues(leaderLog)
	for _, val := range acked {
		if !seen[val] {
			t.Fatalf("acked event %q lost after leader kill -9", val)
		}
	}

	// Durable recovery: the killed broker comes back from its segment
	// files, catches up over OpReplicaFetch, and rejoins the ISR.
	if err := cl.RecoverBroker(leader); err != nil {
		t.Fatalf("RecoverBroker: %v", err)
	}
	waitCond(t, "killed broker rejoining ISR", 10*time.Second, func() bool {
		return isrSize(t, f, "dr", 0) == 3
	})
	recLog, err := f.BrokerLog(leader, "dr", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "recovered broker catch-up", 10*time.Second, func() bool {
		return recLog.EndOffset() == leaderLog.EndOffset()
	})
	recSeen := readValues(recLog)
	for _, val := range acked {
		if !recSeen[val] {
			t.Fatalf("acked event %q missing from recovered broker", val)
		}
	}

	// And the cluster is healthy end to end: acks=all commits through
	// all three replicas again, including the recovered one.
	if _, err := wc.Produce("", "dr", 0, []event.Event{{Value: []byte("post-recovery")}}, broker.AcksAll); err != nil {
		t.Fatalf("acks=all after recovery: %v", err)
	}
	waitCond(t, "recovered broker replicating new records", 5*time.Second, func() bool {
		return recLog.EndOffset() == leaderLog.EndOffset()
	})
}

// TestNoLeaderBoundedRetry: killing every replica of a partition
// leaves it leaderless; a client produce fails with the typed
// wire.ErrNoLeader after a bounded retry/backoff (not a hang, not a
// silent reroute loop), while other partitions keep serving.
func TestNoLeaderBoundedRetry(t *testing.T) {
	cl, f := startCluster(t, 3, "nl", 3, 1)
	// RF=1: each partition has exactly one replica. Killing partition
	// 0's only broker kills all its replicas.
	victim, err := f.PartitionLeader("nl", 0)
	if err != nil {
		t.Fatal(err)
	}
	wc := dialSeed(t, cl, (victim+1)%3)
	if err := cl.StopBroker(victim); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = wc.Produce("", "nl", 0, []event.Event{{Value: []byte("x")}}, broker.AcksLeader)
	elapsed := time.Since(start)
	if !errors.Is(err, wire.ErrNoLeader) {
		t.Fatalf("produce to leaderless partition: %v; want ErrNoLeader", err)
	}
	// The bounded backoff (4 retries, 25ms doubling) must actually
	// have run — and must stay bounded.
	if elapsed < 300*time.Millisecond {
		t.Fatalf("ErrNoLeader after %v: retry/backoff did not run", elapsed)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("ErrNoLeader after %v: backoff not bounded", elapsed)
	}
	// A partition whose replica survived keeps working.
	for p := 1; p < 3; p++ {
		if leader, _ := f.PartitionLeader("nl", p); leader >= 0 {
			if _, err := wc.Produce("", "nl", p, []event.Event{{Value: []byte("y")}}, broker.AcksLeader); err != nil {
				t.Fatalf("surviving partition %d: %v", p, err)
			}
			return
		}
	}
	t.Fatal("no surviving partition found")
}
