// Package client is the Octopus SDK (§IV-E): producers with asynchronous
// batching and configurable acknowledgments and retries, consumers with
// group membership, committed offsets and seek-by-time, and an admin
// surface. Clients speak to the fabric through a Transport, which may be
// the in-process fabric (Direct) or the TCP wire protocol
// (internal/wire).
package client

import (
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// Transport is the client's connection to the event fabric. All SDK
// functionality is built on these primitives.
//
// Errors are typed on every transport: implementations return (or, for
// remote transports, reconstruct from compact wire error codes) the
// domain sentinels — cluster.ErrNoTopic, eventlog.ErrOffsetOutOfRange,
// broker.ErrLeaderUnavailable, auth.ErrDenied, ... — so callers can
// errors.Is identically whether the fabric is in-process or across the
// network.
type Transport interface {
	// Produce appends events; partition < 0 routes per event by key.
	Produce(identity, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error)
	// Fetch reads events from one partition starting at offset.
	Fetch(identity, topic string, partition int, offset int64, maxEvents, maxBytes int) (broker.FetchResult, error)
	// EndOffset returns the next offset to be assigned on the partition.
	EndOffset(topic string, partition int) (int64, error)
	// StartOffset returns the earliest retained offset.
	StartOffset(topic string, partition int) (int64, error)
	// OffsetForTime returns the first offset at or after t.
	OffsetForTime(topic string, partition int, t time.Time) (int64, error)
	// TopicMeta returns topic metadata.
	TopicMeta(topic string) (*cluster.TopicMeta, error)
	// JoinGroup registers group membership and returns the assignment.
	JoinGroup(groupID, memberID string, topics []string) (broker.Assignment, error)
	// LeaveGroup removes the member.
	LeaveGroup(groupID, memberID string)
	// Heartbeat returns the group generation.
	Heartbeat(groupID, memberID string) (int, error)
	// Commit records a consumed position.
	Commit(groupID, memberID string, generation int, topic string, partition int, offset int64) error
	// Committed returns the committed offset or -1.
	Committed(groupID, topic string, partition int) int64
}

// BufferedFetcher is an optional Transport extension for zero-copy
// consumption: FetchBuffered reads into (and decodes out of) the
// caller-owned broker.FetchBuffer instead of allocating a payload and an
// event slice per fetch. The consumer's per-partition fetch sessions use
// it when the transport offers it; results are valid only until the
// buffer's next use. Both Direct and the wire client implement it.
type BufferedFetcher interface {
	FetchBuffered(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, buf *broker.FetchBuffer) (broker.FetchResult, error)
}

// WaitFetcher is an optional Transport extension for long-poll
// consumption: a fetch that finds the partition empty blocks up to wait
// for an append instead of returning immediately, so idle consumers
// stop burning CPU (and, over the wire, round trips) re-polling empty
// partitions. Implementations park on the partition log through an
// eventlog.Waiter (Direct) or on a fetch session's queue of pushed
// frames (wire.Client).
// The consumer uses it when ConsumerConfig.PollWait is set.
type WaitFetcher interface {
	BufferedFetcher
	FetchBufferedWait(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error)
}

// Direct is the in-process Transport over a fabric.
type Direct struct{ Fabric *broker.Fabric }

// NewDirect wraps a fabric as a Transport.
func NewDirect(f *broker.Fabric) *Direct { return &Direct{Fabric: f} }

// Produce implements Transport.
func (d *Direct) Produce(identity, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	return d.Fabric.Produce(identity, topic, partition, evs, acks)
}

// Fetch implements Transport.
func (d *Direct) Fetch(identity, topic string, partition int, offset int64, maxEvents, maxBytes int) (broker.FetchResult, error) {
	return d.Fabric.Fetch(identity, topic, partition, offset, maxEvents, maxBytes)
}

// FetchBuffered implements BufferedFetcher: events append into
// buf.Events (reusing its capacity) and alias the partition log's
// records directly — the in-process path has no payload to copy, so
// buf.Arena is untouched.
func (d *Direct) FetchBuffered(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	res, err := d.Fabric.FetchInto(identity, topic, partition, offset, maxEvents, maxBytes, buf.Events[:0])
	if err != nil {
		return res, err
	}
	buf.Events = res.Events
	return res, nil
}

// FetchBufferedWait implements WaitFetcher: an empty fetch parks on the
// partition log up to wait (Fabric.FetchWaitInto).
func (d *Direct) FetchBufferedWait(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	res, err := d.Fabric.FetchWaitInto(identity, topic, partition, offset, maxEvents, maxBytes, wait, nil, buf.Events[:0])
	if err != nil {
		return res, err
	}
	buf.Events = res.Events
	return res, nil
}

// EndOffset implements Transport.
func (d *Direct) EndOffset(topic string, partition int) (int64, error) {
	return d.Fabric.EndOffset(topic, partition)
}

// StartOffset implements Transport.
func (d *Direct) StartOffset(topic string, partition int) (int64, error) {
	return d.Fabric.StartOffset(topic, partition)
}

// OffsetForTime implements Transport.
func (d *Direct) OffsetForTime(topic string, partition int, t time.Time) (int64, error) {
	return d.Fabric.OffsetForTime(topic, partition, t)
}

// TopicMeta implements Transport.
func (d *Direct) TopicMeta(topic string) (*cluster.TopicMeta, error) {
	return d.Fabric.Ctl.Topic(topic)
}

// JoinGroup implements Transport.
func (d *Direct) JoinGroup(groupID, memberID string, topics []string) (broker.Assignment, error) {
	return d.Fabric.Groups.Join(groupID, memberID, topics)
}

// LeaveGroup implements Transport.
func (d *Direct) LeaveGroup(groupID, memberID string) { d.Fabric.Groups.Leave(groupID, memberID) }

// Heartbeat implements Transport.
func (d *Direct) Heartbeat(groupID, memberID string) (int, error) {
	return d.Fabric.Groups.Heartbeat(groupID, memberID)
}

// Commit implements Transport.
func (d *Direct) Commit(groupID, memberID string, generation int, topic string, partition int, offset int64) error {
	return d.Fabric.Groups.Commit(groupID, memberID, generation, topic, partition, offset)
}

// Committed implements Transport.
func (d *Direct) Committed(groupID, topic string, partition int) int64 {
	return d.Fabric.Groups.Committed(groupID, topic, partition)
}
