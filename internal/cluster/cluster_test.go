package cluster

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func newCtl(t *testing.T, brokers int) *Controller {
	t.Helper()
	c := NewController(nil)
	for i := 0; i < brokers; i++ {
		if err := c.RegisterBroker(BrokerInfo{ID: i, VCPUs: 2, MemGB: 8}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestRegisterAndListBrokers(t *testing.T) {
	c := newCtl(t, 3)
	ids := c.LiveBrokers()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("brokers = %v", ids)
	}
	info, err := c.BrokerInfo(1)
	if err != nil || info.VCPUs != 2 {
		t.Fatalf("info = %+v, %v", info, err)
	}
}

func TestCreateTopicAssignsReplicas(t *testing.T) {
	c := newCtl(t, 4)
	meta, err := c.CreateTopic("instrument-data", "alice", TopicConfig{Partitions: 4, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Partitions) != 4 {
		t.Fatalf("partitions = %d", len(meta.Partitions))
	}
	leaders := map[int]int{}
	for _, p := range meta.Partitions {
		if len(p.Replicas) != 2 {
			t.Fatalf("rf = %d", len(p.Replicas))
		}
		if p.Leader != p.Replicas[0] {
			t.Fatalf("leader %d not first replica %v", p.Leader, p.Replicas)
		}
		if len(p.ISR) != 2 {
			t.Fatalf("isr = %v", p.ISR)
		}
		leaders[p.Leader]++
	}
	// Leaders spread across all four brokers.
	if len(leaders) != 4 {
		t.Fatalf("leader spread = %v", leaders)
	}
}

func TestCreateTopicIdempotentForOwner(t *testing.T) {
	c := newCtl(t, 2)
	m1, err := c.CreateTopic("t", "alice", TopicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.CreateTopic("t", "alice", TopicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.CreatedAt.Equal(m2.CreatedAt) {
		t.Fatal("retry returned a different topic")
	}
	if _, err := c.CreateTopic("t", "mallory", TopicConfig{}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("foreign create: %v", err)
	}
}

func TestCreateTopicDefaults(t *testing.T) {
	c := newCtl(t, 2)
	meta, err := c.CreateTopic("t", "u", TopicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meta.Config
	if cfg.Partitions != 2 || cfg.ReplicationFactor != 2 || cfg.Retention != 7*24*time.Hour {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestCreateTopicClampsRFToBrokers(t *testing.T) {
	c := newCtl(t, 2)
	meta, err := c.CreateTopic("t", "u", TopicConfig{ReplicationFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Config.ReplicationFactor != 2 {
		t.Fatalf("rf = %d", meta.Config.ReplicationFactor)
	}
}

func TestCreateTopicNoBrokers(t *testing.T) {
	c := NewController(nil)
	if _, err := c.CreateTopic("t", "u", TopicConfig{}); !errors.Is(err, ErrNoBrokers) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetPartitionsGrowOnly(t *testing.T) {
	c := newCtl(t, 2)
	if _, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	meta, err := c.SetPartitions("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Config.Partitions != 4 || len(meta.Partitions) != 4 {
		t.Fatalf("partitions = %d/%d", meta.Config.Partitions, len(meta.Partitions))
	}
	if _, err := c.SetPartitions("t", 2); !errors.Is(err, ErrShrinkPartitions) {
		t.Fatalf("shrink: %v", err)
	}
	// Same count is a no-op.
	if _, err := c.SetPartitions("t", 4); err != nil {
		t.Fatal(err)
	}
}

func TestSetConfig(t *testing.T) {
	c := newCtl(t, 2)
	if _, err := c.CreateTopic("t", "u", TopicConfig{}); err != nil {
		t.Fatal(err)
	}
	meta, err := c.SetConfig("t", TopicConfig{Retention: time.Hour, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Config.Retention != time.Hour || !meta.Config.Compact {
		t.Fatalf("config = %+v", meta.Config)
	}
	// Partition count untouched.
	if meta.Config.Partitions != 2 {
		t.Fatalf("partitions changed: %d", meta.Config.Partitions)
	}
}

func TestTopicsAndDelete(t *testing.T) {
	c := newCtl(t, 1)
	_, _ = c.CreateTopic("b", "u", TopicConfig{})
	_, _ = c.CreateTopic("a", "u", TopicConfig{})
	topics := c.Topics()
	if len(topics) != 2 || topics[0] != "a" {
		t.Fatalf("topics = %v", topics)
	}
	if err := c.DeleteTopic("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Topic("a"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("deleted topic: %v", err)
	}
	if err := c.DeleteTopic("ghost"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestPartitionLookup(t *testing.T) {
	c := newCtl(t, 2)
	_, _ = c.CreateTopic("t", "u", TopicConfig{Partitions: 3})
	pm, err := c.Partition("t", 2)
	if err != nil || pm.ID != 2 || pm.Topic != "t" {
		t.Fatalf("pm = %+v, %v", pm, err)
	}
	if _, err := c.Partition("t", 9); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestBrokerFailureElectsNewLeader(t *testing.T) {
	c := newCtl(t, 3)
	meta, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	victim := meta.Partitions[0].Leader
	// Deregister the victim (the broker died) then fail over.
	c.DeregisterBroker(victim)
	changed := c.HandleBrokerFailure(victim)
	if len(changed) == 0 {
		t.Fatal("no partitions changed")
	}
	after, _ := c.Topic("t")
	for _, p := range after.Partitions {
		if p.Leader == victim {
			t.Fatalf("partition %d still led by failed broker", p.ID)
		}
		for _, r := range p.ISR {
			if r == victim {
				t.Fatalf("failed broker still in ISR of %d", p.ID)
			}
		}
	}
}

func TestBrokerRecoveryRejoinsISR(t *testing.T) {
	c := newCtl(t, 2)
	meta, _ := c.CreateTopic("t", "u", TopicConfig{Partitions: 2, ReplicationFactor: 2})
	victim := meta.Partitions[0].Leader
	c.DeregisterBroker(victim)
	c.HandleBrokerFailure(victim)
	// Re-register and recover.
	if err := c.RegisterBroker(BrokerInfo{ID: victim, VCPUs: 2, MemGB: 8}); err != nil {
		t.Fatal(err)
	}
	c.HandleBrokerRecovery(victim)
	after, _ := c.Topic("t")
	for _, p := range after.Partitions {
		if p.Leader < 0 {
			t.Fatalf("partition %d leaderless after recovery", p.ID)
		}
		if p.HasReplica(victim) && !p.InISR(victim) {
			t.Fatalf("recovered broker missing from ISR of %d", p.ID)
		}
	}
}

func TestTotalFailureLeavesLeaderless(t *testing.T) {
	c := newCtl(t, 1)
	_, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.DeregisterBroker(0)
	c.HandleBrokerFailure(0)
	meta, _ := c.Topic("t")
	if meta.Partitions[0].Leader != -1 {
		t.Fatalf("leader = %d, want -1", meta.Partitions[0].Leader)
	}
}

func TestPartitionMetaHelpers(t *testing.T) {
	p := PartitionMeta{Replicas: []int{1, 3}, ISR: []int{3}}
	if !p.HasReplica(1) || p.HasReplica(2) {
		t.Fatal("HasReplica wrong")
	}
	if p.InISR(1) || !p.InISR(3) {
		t.Fatal("InISR wrong")
	}
}

// TestBrokerLiveness checks broker membership: a deregistered broker
// leaves the live set and gets no new replicas, a live id cannot
// register twice, re-registration after deregistration bumps the epoch,
// and HandleBrokerFailure alone (the drain path) leaves the broker live.
func TestBrokerLiveness(t *testing.T) {
	c := newCtl(t, 3)
	c.DeregisterBroker(1)
	if got := c.LiveBrokers(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("live = %v", got)
	}
	if _, err := c.BrokerInfo(1); err == nil {
		t.Fatal("deregistered broker still described")
	}
	if _, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 3, ReplicationFactor: 3}); err != nil {
		t.Fatal(err)
	}
	meta, err := c.SetPartitions("t", 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range meta.Partitions {
		if p.HasReplica(1) {
			t.Fatalf("partition %d placed on deregistered broker: %v", p.ID, p.Replicas)
		}
	}
	if err := c.RegisterBroker(BrokerInfo{ID: 0}); err == nil {
		t.Fatal("re-registering a live broker succeeded")
	}
	epoch := c.Epoch()
	if err := c.RegisterBroker(BrokerInfo{ID: 1, VCPUs: 4}); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != epoch+1 {
		t.Fatalf("epoch %d -> %d on re-registration", epoch, c.Epoch())
	}
	if info, err := c.BrokerInfo(1); err != nil || info.VCPUs != 4 {
		t.Fatalf("info = %+v, %v", info, err)
	}
	c.HandleBrokerFailure(2)
	if got := c.LiveBrokers(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("live after drain = %v", got)
	}
}

// TestEpochBumpsOncePerMutation pins the epoch contract the data-plane
// caches rely on: every metadata change bumps it exactly once, no-ops
// and reads never do.
func TestEpochBumpsOncePerMutation(t *testing.T) {
	c := NewController(nil)
	bumps := func(what string, want int64, op func()) {
		t.Helper()
		before := c.Epoch()
		op()
		if got := c.Epoch() - before; got != want {
			t.Fatalf("%s: epoch moved %d, want %d", what, got, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		bumps("register", 1, func() { must(c.RegisterBroker(BrokerInfo{ID: i})) })
	}
	bumps("set addr", 1, func() { must(c.SetBrokerAddr(0, "127.0.0.1:1")) })
	bumps("create", 1, func() { _, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 2, ReplicationFactor: 3}); must(err) })
	bumps("create retry", 0, func() { _, err := c.CreateTopic("t", "u", TopicConfig{}); must(err) })
	bumps("grow", 1, func() { _, err := c.SetPartitions("t", 3); must(err) })
	bumps("same count", 0, func() { _, err := c.SetPartitions("t", 3); must(err) })
	bumps("config", 1, func() { _, err := c.SetConfig("t", TopicConfig{Compact: true}); must(err) })
	pm, err := c.Partition("t", 0)
	must(err)
	follower := pm.Replicas[1]
	bumps("shrink", 1, func() { _, err := c.ShrinkISR("t", 0, follower); must(err) })
	bumps("shrink no-op", 0, func() { _, err := c.ShrinkISR("t", 0, follower); must(err) })
	bumps("expand", 1, func() { _, err := c.ExpandISR("t", 0, follower); must(err) })
	bumps("expand no-op", 0, func() { _, err := c.ExpandISR("t", 0, follower); must(err) })
	bumps("deregister", 0, func() { c.DeregisterBroker(2) })
	bumps("failure", 1, func() { c.HandleBrokerFailure(2) })
	bumps("recovery", 1, func() { c.HandleBrokerRecovery(2) })
	bumps("reads", 0, func() {
		_, _ = c.Topic("t")
		_ = c.Topics()
		_, _ = c.Partition("t", 1)
		_ = c.LiveBrokers()
		_, _ = c.BrokerInfo(0)
	})
	bumps("delete", 1, func() { must(c.DeleteTopic("t")) })
}

// printSnapshot renders everything reachable from a snapshot, so two
// prints differ if any of it was written.
func printSnapshot(s *Snapshot) string {
	out := fmt.Sprintf("%d %+v", s.Epoch, s.Brokers)
	for _, name := range slices.Sorted(maps.Keys(s.Topics)) {
		out += fmt.Sprintf(" %+v", *s.Topics[name])
	}
	return out
}

// TestPublishedSnapshotsNeverChange holds a published snapshot while
// every mutation TestEpochBumpsOncePerMutation runs goes through: each
// mutation must publish a new snapshot, never write to one a reader may
// still hold.
func TestPublishedSnapshotsNeverChange(t *testing.T) {
	c := NewController(nil)
	var held []*Snapshot
	var want []string
	hold := func() {
		held = append(held, c.Snapshot())
		want = append(want, printSnapshot(c.Snapshot()))
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	hold()
	for i := 0; i < 3; i++ {
		must(nil, c.RegisterBroker(BrokerInfo{ID: i}))
		hold()
	}
	must(nil, c.SetBrokerAddr(0, "127.0.0.1:1"))
	hold()
	must(c.CreateTopic("t", "u", TopicConfig{Partitions: 2, ReplicationFactor: 3}))
	hold()
	must(c.CreateTopic("t", "u", TopicConfig{}))
	must(c.SetPartitions("t", 3))
	hold()
	must(c.SetPartitions("t", 3))
	must(c.SetConfig("t", TopicConfig{Compact: true}))
	hold()
	pm, err := c.Partition("t", 0)
	must(nil, err)
	follower := pm.Replicas[1]
	for i := 0; i < 2; i++ {
		must(c.ShrinkISR("t", 0, follower))
		hold()
	}
	for i := 0; i < 2; i++ {
		must(c.ExpandISR("t", 0, follower))
		hold()
	}
	c.DeregisterBroker(2)
	hold()
	c.HandleBrokerFailure(2)
	hold()
	c.HandleBrokerRecovery(2)
	hold()
	must(nil, c.DeleteTopic("t"))
	for i, s := range held {
		if got := printSnapshot(s); got != want[i] {
			t.Fatalf("snapshot %d changed after it was published:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestReadsReturnCopies checks that what the controller hands out is
// the caller's own: scribbling over a returned topic or partition does
// not change a later read.
func TestReadsReturnCopies(t *testing.T) {
	c := newCtl(t, 3)
	created, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 2, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := c.Topic("t")
	if err != nil {
		t.Fatal(err)
	}
	// Printed, so the expectation shares no memory with any copy.
	want := fmt.Sprintf("%+v", *meta)
	scribble := func(m *TopicMeta) {
		for i := range m.Partitions {
			m.Partitions[i].ISR[0] = 99
			m.Partitions[i].Replicas[0] = 99
			m.Partitions[i].Leader = 99
		}
		m.Partitions = append(m.Partitions[:1], PartitionMeta{ID: 99})
		m.Config.Partitions = 99
	}
	scribble(created)
	scribble(meta)
	got, _ := c.Topic("t")
	scribble(got)
	retry, _ := c.CreateTopic("t", "u", TopicConfig{})
	scribble(retry)
	pm, _ := c.Partition("t", 1)
	pm.ISR[1], pm.Replicas[1] = 99, 99
	pm.ISR = append(pm.ISR[:0], 98)
	after, err := c.Topic("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", *after); got != want {
		t.Fatalf("stored metadata changed through a returned copy:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentMutationsAndReads runs topic creation, ISR changes and
// broker failures against concurrent readers, for the race detector.
// Readers scribble over what they are handed, so a copy that shares
// memory with the stored state is a reported race; one more reader
// walks the published snapshots read-only, so a mutator writing to a
// published snapshot is a reported race too. Every view must also be
// consistent (ISR within the replica set, leader in the ISR or none)
// and the epoch must never go backwards.
func TestConcurrentMutationsAndReads(t *testing.T) {
	c := newCtl(t, 3)
	if _, err := c.CreateTopic("t", "u", TopicConfig{Partitions: 3, ReplicationFactor: 3}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e := c.Epoch(); e < last {
					t.Errorf("epoch went back: %d -> %d", last, e)
					return
				} else {
					last = e
				}
				meta, err := c.Topic("t")
				if err != nil {
					t.Error(err)
					return
				}
				for i := range meta.Partitions {
					p := &meta.Partitions[i]
					for _, b := range p.ISR {
						if !p.HasReplica(b) {
							t.Errorf("%d/%d: ISR %v outside replicas %v", p.ID, b, p.ISR, p.Replicas)
						}
					}
					if p.Leader != -1 && !p.InISR(p.Leader) {
						t.Errorf("partition %d: leader %d not in ISR %v", p.ID, p.Leader, p.ISR)
					}
					p.ISR = append(p.ISR[:0], 99)
				}
				pm, err := c.Partition("t", 1)
				if err != nil {
					t.Error(err)
					return
				}
				pm.Replicas[0] = 99
				live := c.LiveBrokers()
				if !sort.IntsAreSorted(live) {
					t.Errorf("live brokers unsorted: %v", live)
				}
				_ = c.Topics()
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			if s.Epoch < last {
				t.Errorf("snapshot epoch went back: %d -> %d", last, s.Epoch)
				return
			}
			last = s.Epoch
			for _, meta := range s.Topics {
				for i := range meta.Partitions {
					p := &meta.Partitions[i]
					for _, b := range p.ISR {
						if !p.HasReplica(b) {
							t.Errorf("%s/%d: ISR %v outside replicas %v", meta.Name, p.ID, p.ISR, p.Replicas)
						}
					}
					if p.Leader != -1 && !p.InISR(p.Leader) {
						t.Errorf("%s/%d: leader %d not in ISR %v", meta.Name, p.ID, p.Leader, p.ISR)
					}
				}
			}
		}
	}()
	var writers sync.WaitGroup
	writers.Add(3)
	go func() {
		defer writers.Done()
		for i := 0; i < 50; i++ {
			if _, err := c.CreateTopic(fmt.Sprintf("n%d", i), "u", TopicConfig{Partitions: 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			pm, err := c.Partition("t", 0)
			if err != nil {
				t.Error(err)
				return
			}
			for _, b := range pm.Replicas {
				if b != pm.Leader {
					_, _ = c.ShrinkISR("t", 0, b)
					_, _ = c.ExpandISR("t", 0, b)
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 100; i++ {
			c.HandleBrokerFailure(i % 3)
			c.HandleBrokerRecovery(i % 3)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := len(c.Topics()); got != 51 {
		t.Fatalf("topics = %d, want 51", got)
	}
}
