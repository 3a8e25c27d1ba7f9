package broker

import (
	"errors"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/vclock"
)

var rlOrigin = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func TestQuotaAllowsWithinBudget(t *testing.T) {
	clk := vclock.NewVirtual(rlOrigin)
	q := NewQuotas(clk)
	q.SetLimit("alice", 100, 100)
	if err := q.Admit("alice", 50); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit("alice", 50); err != nil {
		t.Fatal(err)
	}
	// Bucket empty: the next event is rejected.
	if err := q.Admit("alice", 1); !IsRateLimited(err) {
		t.Fatalf("err = %v", err)
	}
	// Refill after a second.
	clk.Advance(time.Second)
	if err := q.Admit("alice", 100); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
}

func TestQuotaPartialRefill(t *testing.T) {
	clk := vclock.NewVirtual(rlOrigin)
	q := NewQuotas(clk)
	q.SetLimit("u", 1000, 1000)
	if err := q.Admit("u", 1000); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond) // 100 tokens back
	if err := q.Admit("u", 100); err != nil {
		t.Fatalf("partial refill: %v", err)
	}
	if err := q.Admit("u", 10); !IsRateLimited(err) {
		t.Fatalf("over partial refill: %v", err)
	}
}

func TestQuotaUnlimitedIdentities(t *testing.T) {
	q := NewQuotas(nil)
	if err := q.Admit("nobody-configured", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit("", 1<<20); err != nil { // trusted in-process
		t.Fatal(err)
	}
	q.SetLimit("u", 10, 10)
	if q.Limit("u") != 10 {
		t.Fatalf("limit = %v", q.Limit("u"))
	}
	q.SetLimit("u", 0, 0) // remove
	if q.Limit("u") != 0 {
		t.Fatal("limit not removed")
	}
	if err := q.Admit("u", 1<<20); err != nil {
		t.Fatalf("after removal: %v", err)
	}
}

func TestQuotaBurstDefaultsToRate(t *testing.T) {
	clk := vclock.NewVirtual(rlOrigin)
	q := NewQuotas(clk)
	q.SetLimit("u", 250, 0)
	if err := q.Admit("u", 250); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit("u", 1); !IsRateLimited(err) {
		t.Fatalf("burst exceeded rate: %v", err)
	}
}

func TestProduceEnforcesQuota(t *testing.T) {
	f := newFabric(t, 1)
	if _, err := f.CreateTopic("metered", "heavy-user", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	f.Quotas.SetLimit("heavy-user", 10, 10)
	if _, err := f.Produce("heavy-user", "metered", 0, evs(10, "a"), AcksLeader); err != nil {
		t.Fatal(err)
	}
	_, err := f.Produce("heavy-user", "metered", 0, evs(1, "b"), AcksLeader)
	if !IsRateLimited(err) {
		t.Fatalf("err = %v", err)
	}
	// The error is retryable for the SDK backoff path.
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Fatal("rate-limit error not temporary")
	}
	if f.Metrics.Counter("fabric.rate_limited").Value() != 1 {
		t.Fatalf("metric = %d", f.Metrics.Counter("fabric.rate_limited").Value())
	}
	// Other identities are unaffected.
	f.ACL.Grant("metered", "light-user", auth.PermWrite)
	if _, err := f.Produce("light-user", "metered", 0, evs(5, "c"), AcksLeader); err != nil {
		t.Fatalf("unmetered identity: %v", err)
	}
}
