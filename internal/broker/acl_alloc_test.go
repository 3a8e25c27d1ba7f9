//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts on the pooled produce path mean something only without it.

package broker

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/cluster"
)

// TestAuthorizedProduceAllocs checks that authorization is free on the
// produce path: a produce by the topic's owner allocates no more than an
// anonymous one on the same fabric, and a granted ACL check allocates
// nothing.
func TestAuthorizedProduceAllocs(t *testing.T) {
	f := newFabric(t, 1)
	if _, err := f.CreateTopic("owned", "alice", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 1}); err != nil {
		t.Fatal(err)
	}
	batch := evs(1, "e")
	produce := func(identity string) func() {
		return func() {
			if _, err := f.Produce(identity, "owned", 0, batch, AcksLeader); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the route cache and the scratch pool.
	produce("alice")()
	produce("")()
	anonymous := testing.AllocsPerRun(1000, produce(""))
	authorized := testing.AllocsPerRun(1000, produce("alice"))
	if authorized > anonymous {
		t.Fatalf("authorized produce allocates %.0f times, anonymous %.0f", authorized, anonymous)
	}
	check := testing.AllocsPerRun(1000, func() {
		if err := f.ACL.Check("owned", "alice", auth.PermWrite); err != nil {
			t.Fatal(err)
		}
	})
	if check != 0 {
		t.Fatalf("granted ACL check allocates %.0f times, want 0", check)
	}
	t.Logf("allocs per produce: anonymous %.0f, authorized %.0f", anonymous, authorized)
}
