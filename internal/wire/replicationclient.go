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

// ReplicaFetch pulls a replication batch from the partition leader at
// offset (the follower's log end, which doubles as its ack), long-
// polling up to wait when the follower is caught up. Events are
// decoded into buf's arena, so a steady-state fetch loop reuses one
// receive buffer; returned events are valid until the next call with
// the same buf.
func (c *Client) ReplicaFetch(follower int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.ReplicaFetchResult, error) {
	if c.tableLeader(topic, partition) == follower {
		// A follower never fetches from itself: this table predates the
		// election that demoted it (a drained leader's new follower loop
		// can start before the metadata push lands), and sending on it
		// would only be refused with ErrNotLeader.
		_ = c.refreshMetadata()
	}
	req := ReplicaFetchReq{
		Topic: topic, Partition: partition, Follower: follower,
		LeaderEpoch: epoch, Offset: offset,
		MaxEvents: maxEvents, MaxBytes: maxBytes,
		WaitMaxMS: int(wait / time.Millisecond),
	}
	var resp ReplicaFetchResp
	cl, err := c.dataCall(topic, partition, &req, &resp, nil, buf.Arena[:0])
	if err != nil {
		return broker.ReplicaFetchResult{}, err
	}
	if cl.arena != nil {
		buf.Arena = cl.arena
	}
	evs, pos, err := event.AppendUnmarshalBatch(buf.Events[:0], cl.data, resp.NumEvents)
	if err != nil {
		return broker.ReplicaFetchResult{}, fmt.Errorf("wire: %w", err)
	}
	if pos != len(cl.data) {
		return broker.ReplicaFetchResult{}, fmt.Errorf("wire: %d trailing bytes after %d events", len(cl.data)-pos, resp.NumEvents)
	}
	buf.Events = evs
	resp.Stamp(evs, topic, partition)
	return broker.ReplicaFetchResult{
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
