package wire

import (
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// TestStaleLeaderReroutesOnce drives the reactive half of routing. A
// pushed metadata document can lose the race with a request, so a
// client may still send a request to a broker that no longer leads the
// partition. That broker refuses it with ErrNotLeader, and the client
// re-fetches metadata and retries once against the real leader. Two
// per-broker servers share one fabric; the client's table is made to
// name the wrong broker before a produce (the dataCall path) and again
// before a session fetch (the fetchBuffered path), and each must
// succeed after exactly one misroute.
func TestStaleLeaderReroutesOnce(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("sl", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	servers := map[int]*Server{}
	addrs := map[int]string{}
	for _, id := range f.NodeIDs() {
		s := NewBrokerServer(f, id)
		s.AllowAnonymous = true
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		n, _ := f.Node(id)
		n.SetAddr(addr)
		servers[id], addrs[id] = s, addr
	}
	leader, err := f.PartitionLeader("sl", 0)
	if err != nil {
		t.Fatal(err)
	}
	other := 1 - leader
	c, err := DialOptions(addrs[other], Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.dataAddr("sl", 0); got != addrs[leader] {
		t.Fatalf("bootstrapped route %s, want the leader's %s", got, addrs[leader])
	}
	misroutes := func() int64 { return servers[0].Misroutes() + servers[1].Misroutes() }
	stale := func() {
		c.rt.mu.Lock()
		c.rt.topics["sl"] = []int{other}
		c.rt.mu.Unlock()
		if got := c.dataAddr("sl", 0); got != addrs[other] {
			t.Fatalf("stale route %s, want %s", got, addrs[other])
		}
	}

	stale()
	if _, err := c.Produce("", "sl", 0, []event.Event{{Value: []byte("rerouted")}}, broker.AcksLeader); err != nil {
		t.Fatalf("produce through a stale route: %v", err)
	}
	if n := misroutes(); n != 1 {
		t.Fatalf("produce misrouted %d times, want 1", n)
	}
	if got := c.dataAddr("sl", 0); got != addrs[leader] {
		t.Fatalf("route after the produce %s, want the leader's %s", got, addrs[leader])
	}

	stale()
	var buf broker.FetchBuffer
	res, err := c.FetchBufferedWait("", "sl", 0, 0, 10, 1<<20, 5*time.Second, &buf)
	if err != nil {
		t.Fatalf("session fetch through a stale route: %v", err)
	}
	if len(res.Events) != 1 || string(res.Events[0].Value) != "rerouted" {
		t.Fatalf("session fetch returned %d events", len(res.Events))
	}
	if n := misroutes(); n != 2 {
		t.Fatalf("session fetch misrouted %d times, want 1", n-1)
	}
	if c.sessSub("sl", 0) == nil {
		t.Fatal("fetch not served by a session on the leader's connection")
	}
}
