package wire

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
)

// Client methods for the inter-broker replication ops. They ride the same metadata-driven router as the
// data plane — a replica fetch auto-dials the partition leader's
// advertised address, re-routes on ErrNotLeader, and waits out a
// re-election on ErrNoLeader — which is exactly what a follower's
// fetch loop needs across a failover.

// ReplicaBatch is one decoded replica fetch: the events plus the
// leader's framing state.
type ReplicaBatch struct {
	Events []event.Event
	// LeaderEpoch is the leader's current epoch; ahead of the
	// follower's view it means "truncate and re-fetch".
	LeaderEpoch int64
	// HighWatermark is the partition HW at serve time.
	HighWatermark int64
	// LogStart and LogEnd frame the leader's log (see
	// ReplicaFetchResp).
	LogStart int64
	LogEnd   int64
}

// ReplicaFetch pulls a replication batch from the partition leader at
// offset (the follower's log end, which doubles as its ack), long-
// polling up to wait when the follower is caught up. Events are
// decoded into buf's arena, so a steady-state fetch loop reuses one
// receive buffer; returned events are valid until the next call with
// the same buf.
func (c *Client) ReplicaFetch(follower int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (ReplicaBatch, error) {
	req := ReplicaFetchReq{
		Topic: topic, Partition: partition, Follower: follower,
		LeaderEpoch: epoch, Offset: offset,
		MaxEvents: maxEvents, MaxBytes: maxBytes,
		WaitMaxMS: int(wait / time.Millisecond),
	}
	var resp ReplicaFetchResp
	cl, err := c.dataCall(topic, partition, &req, &resp, nil, buf.Arena[:0])
	if err != nil {
		return ReplicaBatch{}, err
	}
	if cl.arena != nil {
		buf.Arena = cl.arena
	}
	evs, pos, err := event.AppendUnmarshalBatch(buf.Events[:0], cl.data, resp.NumEvents)
	if err != nil {
		return ReplicaBatch{}, fmt.Errorf("wire: %w", err)
	}
	if pos != len(cl.data) {
		return ReplicaBatch{}, fmt.Errorf("wire: %d trailing bytes after %d events", len(cl.data)-pos, resp.NumEvents)
	}
	buf.Events = evs
	resp.Stamp(evs, topic, partition)
	return ReplicaBatch{
		Events:        evs,
		LeaderEpoch:   resp.LeaderEpoch,
		HighWatermark: resp.HighWatermark,
		LogStart:      resp.LogStart,
		LogEnd:        resp.LogEnd,
	}, nil
}

// ReplicaAck pushes the follower's log end offset to the leader right
// after an append, advancing the partition high watermark without
// waiting for the next fetch round trip.
func (c *Client) ReplicaAck(follower int, topic string, partition int, epoch, leo int64) error {
	req := ReplicaAckReq{Topic: topic, Partition: partition, Follower: follower, LeaderEpoch: epoch, LogEnd: leo}
	_, err := c.dataCall(topic, partition, &req, &EmptyResp{}, nil, nil)
	return err
}
