package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/vclock"
)

// StartPosition selects where a consumer without a committed offset
// begins (§IV-F: "consumers can consume messages either from the latest
// or the earliest offset, or after a certain timestamp").
type StartPosition int

// Start positions.
const (
	// StartLatest begins at the partition end (only new events).
	StartLatest StartPosition = iota
	// StartEarliest begins at the earliest retained offset.
	StartEarliest
	// StartAtTime begins at the first event at or after StartTime.
	StartAtTime
)

// ConsumerConfig tunes the SDK consumer.
type ConsumerConfig struct {
	// Identity is the consuming principal (empty = trusted in-process).
	Identity string
	// Group enables coordinated consumption; empty means standalone
	// (the caller assigns partitions with Assign).
	Group string
	// MemberID identifies this consumer in the group (auto if empty).
	MemberID string
	// Start selects the initial position without a commit.
	Start StartPosition
	// StartTime is used with StartAtTime.
	StartTime time.Time
	// MaxPollEvents bounds one Poll (default 500).
	MaxPollEvents int
	// ReceiveBufferBytes bounds bytes per partition fetch (default 2 MB,
	// the paper's tuned receive.buffer.bytes).
	ReceiveBufferBytes int
	// AutoCommit commits positions after each Poll when true
	// (default behavior; §IV-F "consumers periodically commit").
	AutoCommit bool
	// Prefetch pipelines consumption: after each Poll, the consumer
	// starts fetching the next batch for the polled partition in the
	// background, so the network round trip overlaps with the
	// application processing the current batch. Requires a
	// BufferedFetcher transport (Direct and the wire client both are);
	// ignored otherwise.
	Prefetch bool
	// PollWait long-polls: a Poll that finds every assigned partition
	// empty blocks up to this long on the next round-robin partition —
	// through the transport's WaitFetcher extension (Direct and a plain
	// wire long-poll park on the partition log through an
	// eventlog.Waiter; a fetch-session connection parks on the local
	// queue of pushed frames) — instead of returning
	// empty immediately, so an idle consumer costs a blocked goroutine
	// rather than a fetch loop. Zero keeps Poll non-blocking. With
	// multiple assigned partitions, data appended to a partition other
	// than the one being waited on is picked up by the next Poll, so
	// worst-case extra latency is one PollWait. Note that Commit/Seek
	// from other goroutines block while a Poll is waiting.
	PollWait time.Duration
	// CommitInterval throttles auto-commits: positions commit at most
	// once per interval (§IV-F: "the commit window is adjustable").
	// Zero commits on every poll.
	CommitInterval time.Duration
	// Clock supplies time (default real).
	Clock vclock.Clock
}

func (c *ConsumerConfig) fill() {
	if c.MaxPollEvents == 0 {
		c.MaxPollEvents = 500
	}
	if c.ReceiveBufferBytes == 0 {
		c.ReceiveBufferBytes = 2 << 20
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// ErrConsumerClosed reports use of a closed consumer.
var ErrConsumerClosed = errors.New("client: consumer closed")

var memberSeq struct {
	mu sync.Mutex
	n  int
}

func nextMemberID() string {
	memberSeq.mu.Lock()
	defer memberSeq.mu.Unlock()
	memberSeq.n++
	return fmt.Sprintf("member-%d", memberSeq.n)
}

// Consumer reads events from assigned partitions, tracking per-partition
// positions, rejoining on rebalance, and committing offsets for
// at-least-once delivery.
//
// When the transport is a BufferedFetcher, each assigned partition gets
// a fetch session owning a reusable receive buffer (its arena growth is
// bounded by ReceiveBufferBytes), so the steady-state consume path stops
// allocating; see Poll for the resulting lifetime contract. The wire
// client serves those fetches by multiplexing every assigned partition
// over one session (and one server goroutine) per connection; the
// consumer's Poll loop does not depend on it.
type Consumer struct {
	t   Transport
	bf  BufferedFetcher // t's buffered-fetch extension, nil if absent
	wf  WaitFetcher     // t's long-poll extension, nil if absent
	cfg ConsumerConfig

	mu         sync.Mutex
	topics     []string
	assigned   []broker.TP
	positions  map[broker.TP]int64
	sessions   map[broker.TP]*fetchSession
	pollBuf    []event.Event // reused Poll result slice
	generation int
	rr         int // round-robin cursor over assigned partitions
	lastCommit time.Time
	closed     bool
}

// fetchSession is one partition's consume state: a receive buffer the
// transport decodes into on every poll, plus a second buffer an async
// prefetch fills while the application processes the first.
type fetchSession struct {
	buf broker.FetchBuffer // active receive buffer
	pre broker.FetchBuffer // prefetch target; swapped in when adopted
	// pending, when non-nil, carries the in-flight prefetch started at
	// preOff. Only the prefetch goroutine touches pre until its result
	// has been received from pending.
	pending chan prefetchResult
	preOff  int64
}

type prefetchResult struct {
	res broker.FetchResult
	err error
}

// NewConsumer creates a consumer. With cfg.Group set, call Subscribe;
// otherwise call Assign.
func NewConsumer(t Transport, cfg ConsumerConfig) *Consumer {
	cfg.fill()
	if cfg.Group != "" && cfg.MemberID == "" {
		cfg.MemberID = nextMemberID()
	}
	bf, _ := t.(BufferedFetcher)
	wf, _ := t.(WaitFetcher)
	return &Consumer{
		t: t, bf: bf, wf: wf, cfg: cfg,
		positions: make(map[broker.TP]int64),
		sessions:  make(map[broker.TP]*fetchSession),
	}
}

// Subscribe joins the configured group for the topics and adopts the
// coordinator's assignment.
func (c *Consumer) Subscribe(topics ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConsumerClosed
	}
	if c.cfg.Group == "" {
		return errors.New("client: Subscribe requires a group; use Assign for standalone consumers")
	}
	c.topics = append([]string(nil), topics...)
	return c.rejoinLocked()
}

func (c *Consumer) rejoinLocked() error {
	asn, err := c.t.JoinGroup(c.cfg.Group, c.cfg.MemberID, c.topics)
	if err != nil {
		return err
	}
	c.generation = asn.Generation
	c.assigned = asn.Partitions
	// Reset positions: committed offsets win, else the start policy.
	c.positions = make(map[broker.TP]int64, len(c.assigned))
	for _, tp := range c.assigned {
		if off := c.t.Committed(c.cfg.Group, tp.Topic, tp.Partition); off >= 0 {
			c.positions[tp] = off
			continue
		}
		off, err := c.startOffsetFor(tp)
		if err != nil {
			return err
		}
		c.positions[tp] = off
	}
	return nil
}

// Assign sets explicit partitions for a standalone consumer.
func (c *Consumer) Assign(topic string, partitions ...int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConsumerClosed
	}
	for _, p := range partitions {
		tp := broker.TP{Topic: topic, Partition: p}
		c.assigned = append(c.assigned, tp)
		off, err := c.startOffsetFor(tp)
		if err != nil {
			return err
		}
		c.positions[tp] = off
	}
	return nil
}

func (c *Consumer) startOffsetFor(tp broker.TP) (int64, error) {
	switch c.cfg.Start {
	case StartEarliest:
		return c.t.StartOffset(tp.Topic, tp.Partition)
	case StartAtTime:
		return c.t.OffsetForTime(tp.Topic, tp.Partition, c.cfg.StartTime)
	default:
		return c.t.EndOffset(tp.Topic, tp.Partition)
	}
}

// Seek moves the position of an assigned partition.
func (c *Consumer) Seek(topic string, partition int, offset int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.positions[broker.TP{Topic: topic, Partition: partition}] = offset
}

// Assignment returns the currently assigned partitions.
func (c *Consumer) Assignment() []broker.TP {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]broker.TP(nil), c.assigned...)
}

// Poll fetches up to max events (cfg.MaxPollEvents if max <= 0) across
// assigned partitions, advancing positions. It returns immediately with
// whatever is available, possibly nothing. On a group rebalance the
// consumer transparently rejoins and retries once.
//
// The returned slice — and, on a zero-copy transport (BufferedFetcher),
// the events' Key/Value bytes — is reused by the next Poll on this
// consumer. Process or copy events before polling again; do not retain
// them across polls. Every in-tree consumer already follows this
// (Kafka-style) pattern.
func (c *Consumer) Poll(max int) ([]event.Event, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConsumerClosed
	}
	if max <= 0 {
		max = c.cfg.MaxPollEvents
	}
	evs, err := c.pollLocked(max)
	if err == nil && c.cfg.Group != "" && c.cfg.AutoCommit {
		now := c.cfg.Clock.Now()
		if c.cfg.CommitInterval <= 0 || now.Sub(c.lastCommit) >= c.cfg.CommitInterval {
			cerr := c.commitLocked()
			if cerr == nil {
				c.lastCommit = now
			} else if errors.Is(cerr, broker.ErrStaleGeneration) {
				if rerr := c.rejoinLocked(); rerr != nil {
					return evs, rerr
				}
			}
		}
	}
	return evs, err
}

func (c *Consumer) pollLocked(max int) ([]event.Event, error) {
	out := c.pollBuf[:0]
	n := len(c.assigned)
	for i := 0; i < n && len(out) < max; i++ {
		tp := c.assigned[(c.rr+i)%n]
		res, err := c.fetchOne(tp, max-len(out), 0)
		if err != nil {
			c.pollBuf = out
			return out, err
		}
		out = append(out, res.Events...)
	}
	if n > 0 {
		c.rr = (c.rr + 1) % n
	}
	if len(out) == 0 && n > 0 && c.cfg.PollWait > 0 && c.wf != nil {
		// Every partition came back empty: long-poll the next
		// round-robin partition instead of returning an empty slice the
		// caller would immediately re-Poll. Successive polls rotate rr,
		// so every assigned partition gets waited on in turn.
		res, err := c.fetchOne(c.assigned[c.rr], max, c.cfg.PollWait)
		if err != nil {
			c.pollBuf = out
			return out, err
		}
		out = append(out, res.Events...)
	}
	c.pollBuf = out
	return out, nil
}

// fetchOne fetches one partition at its current position, advancing the
// position and kicking a prefetch when events arrive. Leader failover
// yields an empty result (retried next poll); a position below the
// retention start jumps forward.
func (c *Consumer) fetchOne(tp broker.TP, max int, wait time.Duration) (broker.FetchResult, error) {
	pos := c.positions[tp]
	res, err := c.fetchPartition(tp, pos, max, wait)
	if err != nil {
		if errors.Is(err, broker.ErrLeaderUnavailable) {
			return broker.FetchResult{}, nil // failing over; try next poll
		}
		res2, serr := c.recoverOutOfRange(tp, err)
		if serr != nil {
			return broker.FetchResult{}, err
		}
		res = res2
	}
	if len(res.Events) > 0 {
		last := res.Events[len(res.Events)-1]
		c.positions[tp] = last.Offset + 1
		c.maybePrefetch(tp)
	}
	return res, nil
}

// fetchPartition fetches one partition at pos, through the zero-copy
// session when the transport supports it — adopting an in-flight
// prefetch's result when it matches the position.
func (c *Consumer) fetchPartition(tp broker.TP, pos int64, max int, wait time.Duration) (broker.FetchResult, error) {
	if c.bf == nil {
		return c.t.Fetch(c.cfg.Identity, tp.Topic, tp.Partition, pos, max, c.cfg.ReceiveBufferBytes)
	}
	s := c.session(tp)
	if s.pending != nil {
		r := <-s.pending
		s.pending = nil
		if r.err == nil && s.preOff == pos && (len(r.res.Events) > 0 || wait <= 0) {
			// The prefetch landed exactly where this poll reads: swap its
			// buffer in and serve it without touching the transport. (An
			// empty prefetch result does not satisfy a waiting poll —
			// fall through so the wait actually blocks.)
			s.buf, s.pre = s.pre, s.buf
			res := r.res
			if len(res.Events) > max {
				// The caller asked for fewer than were prefetched; the
				// position advances only past what is returned, so the
				// remainder is refetched next poll.
				res.Events = res.Events[:max]
			}
			return res, nil
		}
		// Stale (seek, rebalance) or failed prefetch: fall through to a
		// fresh fetch.
	}
	if wait > 0 && c.wf != nil {
		return c.wf.FetchBufferedWait(c.cfg.Identity, tp.Topic, tp.Partition, pos, max, c.cfg.ReceiveBufferBytes, wait, &s.buf)
	}
	return c.bf.FetchBuffered(c.cfg.Identity, tp.Topic, tp.Partition, pos, max, c.cfg.ReceiveBufferBytes, &s.buf)
}

// maybePrefetch starts an async fetch of tp's next batch into the
// session's spare buffer, overlapping the transport round trip with the
// application's processing of the batch just returned.
func (c *Consumer) maybePrefetch(tp broker.TP) {
	if !c.cfg.Prefetch || c.bf == nil {
		return
	}
	s := c.session(tp)
	if s.pending != nil {
		return
	}
	pos := c.positions[tp]
	ch := make(chan prefetchResult, 1)
	s.pending = ch
	s.preOff = pos
	pre := &s.pre
	go func() {
		res, err := c.bf.FetchBuffered(c.cfg.Identity, tp.Topic, tp.Partition, pos, c.cfg.MaxPollEvents, c.cfg.ReceiveBufferBytes, pre)
		ch <- prefetchResult{res: res, err: err}
	}()
}

func (c *Consumer) session(tp broker.TP) *fetchSession {
	s, ok := c.sessions[tp]
	if !ok {
		s = &fetchSession{}
		c.sessions[tp] = s
	}
	return s
}

func (c *Consumer) recoverOutOfRange(tp broker.TP, err error) (broker.FetchResult, error) {
	start, serr := c.t.StartOffset(tp.Topic, tp.Partition)
	if serr != nil || c.positions[tp] >= start {
		return broker.FetchResult{}, err
	}
	c.positions[tp] = start
	return c.t.Fetch(c.cfg.Identity, tp.Topic, tp.Partition, start, c.cfg.MaxPollEvents, c.cfg.ReceiveBufferBytes)
}

// Commit records current positions with the coordinator (§IV-F:
// "consumers can manually invoke the commit API").
func (c *Consumer) Commit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked()
}

func (c *Consumer) commitLocked() error {
	if c.cfg.Group == "" {
		return nil
	}
	for tp, off := range c.positions {
		if err := c.t.Commit(c.cfg.Group, c.cfg.MemberID, c.generation, tp.Topic, tp.Partition, off); err != nil {
			return err
		}
	}
	return nil
}

// Lag returns the total unconsumed backlog across assigned partitions.
func (c *Consumer) Lag() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lag int64
	for _, tp := range c.assigned {
		end, err := c.t.EndOffset(tp.Topic, tp.Partition)
		if err != nil {
			return 0, err
		}
		if d := end - c.positions[tp]; d > 0 {
			lag += d
		}
	}
	return lag, nil
}

// Close leaves the group and marks the consumer unusable.
func (c *Consumer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	if c.cfg.Group != "" {
		if c.cfg.AutoCommit {
			// Best-effort final commit; the group may already have
			// rebalanced, in which case the next owner resumes from the
			// previous commit (at-least-once).
			_ = c.commitLocked()
		}
		c.t.LeaveGroup(c.cfg.Group, c.cfg.MemberID)
	}
	c.closed = true
	return nil
}
