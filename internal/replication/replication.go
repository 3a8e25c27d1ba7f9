// Package replication is the inter-broker replication subsystem: the
// machinery that turns the fabric's per-broker replica logs into a
// replicated partition with Kafka's guarantees (§IV-A of the paper).
//
// It splits into two halves:
//
//   - Tracker (tracker.go) is the leader/controller side, attached to
//     the fabric as its broker.Replicator. It tracks every follower's
//     replicated log end offset (fetch offsets double as acks),
//     advances each partition's high watermark — the largest offset
//     every in-sync replica has durably appended — and gates acks=all
//     produces on it. Followers that stop keeping up are shrunk out of
//     the ISR (down to min.insync.replicas, below which acks=all fails
//     with ErrNotEnoughReplicas); followers that catch back up to the
//     leader's log end are expanded back in.
//
//   - Manager (manager.go) is the follower side, one per broker. It
//     watches the controller's metadata epoch and runs one fetch loop
//     per partition its broker follows: pull a batch from the leader
//     at the local log end (over wire-v2 OpReplicaFetch in a real
//     cluster, or in-process for tests), append it preserving the
//     leader-assigned offsets, and ack the new log end. Every fetch is
//     fenced by the leader epoch: a deposed leader rejects stale
//     fetches with ErrFencedEpoch, and a fenced (or diverged) follower
//     truncates its log to the new leader's end before re-fetching.
//
// High-watermark advance rule: HW = max(previous HW, min over ISR
// members of their tracked log end). The min makes acks=all mean
// "every in-sync replica has it"; the max keeps the HW monotonic
// across ISR changes, so a shrink never un-commits acked records.
package replication

import "time"

// Config tunes both halves of the subsystem. The zero value is ready
// for use; fill() applies the defaults.
type Config struct {
	// CommitTimeout bounds WaitCommitted: an acks=all produce whose
	// followers have not replicated the batch within it shrinks the
	// laggards out of the ISR and re-evaluates (default 2s).
	CommitTimeout time.Duration
	// MaxEvents and MaxBytes bound one replica fetch batch
	// (defaults 2048 events, 1 MiB).
	MaxEvents int
	MaxBytes  int
	// FetchWait is the follower's long-poll: a caught-up follower's
	// fetch parks on the leader log this long instead of spinning
	// (default 200ms).
	FetchWait time.Duration
	// RetryBackoff paces a fetch loop after an error (default 20ms).
	RetryBackoff time.Duration
}

func (c *Config) fill() {
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 2 * time.Second
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 2048
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	if c.FetchWait <= 0 {
		c.FetchWait = 200 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
}
