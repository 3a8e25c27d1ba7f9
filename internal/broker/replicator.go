package broker

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/eventlog"
)

// Replicator is the fabric's hook into the inter-broker replication
// subsystem (internal/replication). When attached, the produce path
// stops copying batches to follower logs in-process: the leader appends
// locally, followers pull over the wire, and acks=all waits for the
// partition high watermark to pass the batch. When nil, the fabric
// keeps its original single-process behavior (synchronous in-process
// replication to follower log handles).
type Replicator interface {
	// LeaderAppended notes that the leader's log for tp now ends at
	// end — the leader's own "ack", which feeds high-watermark
	// accounting exactly like a follower's.
	LeaderAppended(tp TP, end int64)
	// WaitCommitted blocks until the partition's high watermark passes
	// lastOffset (every ISR member has replicated the batch), the
	// replication timeout lapses, or the subsystem shuts down. On
	// timeout the subsystem may shrink lagging followers out of the ISR
	// and succeed, provided min.insync.replicas still holds.
	WaitCommitted(tp TP, lastOffset int64) error
	// HighWatermark returns the tracked high watermark for tp, false if
	// the partition is not tracked (no acks=all produce or replica
	// fetch has touched it yet).
	HighWatermark(tp TP) (int64, bool)
	// ReplicaFetch serves a follower pull on the leader: events from
	// the leader log at offset (long-polling up to wait), fenced by the
	// follower's leader epoch. The fetch offset doubles as an ack for
	// everything below it.
	ReplicaFetch(followerID int, tp TP, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, stop <-chan struct{}, dst []event.Event) (ReplicaFetchResult, error)
	// ReplicaAck records a follower's log end offset after it appended
	// a fetched batch, advancing the high watermark (and the follower
	// back into the ISR once caught up) without waiting for its next
	// fetch round-trip.
	ReplicaAck(followerID int, tp TP, epoch, leo int64) error
	// Status reports the partition's tracked replication state for
	// observability (metadata responses, CLI, metrics).
	Status(tp TP) (ReplicaStatus, bool)
}

// ReplicaFetchResult is the leader's answer to one follower pull.
type ReplicaFetchResult struct {
	Events []event.Event
	// LeaderEpoch echoes the leader's current epoch.
	LeaderEpoch int64
	// HighWatermark is the partition HW at serve time; followers expose
	// it to their own (future follower-read) consumers.
	HighWatermark int64
	// LogStart/LogEnd frame the leader log: a follower fetching below
	// LogStart resets to it (the gap is in tiered storage), one
	// fetching above LogEnd diverged and truncates to LogEnd.
	LogStart int64
	LogEnd   int64
}

// FollowerState is one follower's replication progress.
type FollowerState struct {
	Broker int
	// LogEnd is the follower's last acked log end offset.
	LogEnd int64
}

// ReplicaStatus is a partition's tracked replication state.
type ReplicaStatus struct {
	LeaderEpoch   int64
	HighWatermark int64
	// LogEnd is the leader's log end offset.
	LogEnd    int64
	Followers []FollowerState
}

// TieredReader serves reads below the local log start from archived
// segment objects — the paper's "persisted to reliable cloud storage"
// tier. internal/store's Archive implements it.
type TieredReader interface {
	ReadTier(topic string, partition int, offset int64, maxEvents, maxBytes int, dst []event.Event) ([]event.Event, error)
}

// SetReplicator attaches (or, with nil, detaches) the replication
// subsystem. Attach before serving traffic: produces observe the change
// atomically but are not fenced against it.
func (f *Fabric) SetReplicator(r Replicator) {
	if r == nil {
		f.repl.Store((*replicatorBox)(nil))
		return
	}
	f.repl.Store(&replicatorBox{r})
}

// replicatorBox wraps the interface so atomic.Value tolerates differing
// concrete types (including nil) across Store calls.
type replicatorBox struct{ r Replicator }

// Replicator returns the attached replication subsystem, nil if none.
func (f *Fabric) Replicator() Replicator {
	if b, _ := f.repl.Load().(*replicatorBox); b != nil {
		return b.r
	}
	return nil
}

// SetTieredReader attaches archive-backed tiered reads for offsets
// below local retention.
func (f *Fabric) SetTieredReader(tr TieredReader) {
	if tr == nil {
		f.tiered.Store((*tieredBox)(nil))
		return
	}
	f.tiered.Store(&tieredBox{tr})
}

type tieredBox struct{ tr TieredReader }

func (f *Fabric) tieredReader() TieredReader {
	if b, _ := f.tiered.Load().(*tieredBox); b != nil {
		return b.tr
	}
	return nil
}

// ReplicaFetch is the fabric entry point for the wire server's
// OpReplicaFetch: it verifies this fabric hosts the partition leader and
// delegates to the replication subsystem.
func (f *Fabric) ReplicaFetch(followerID int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, stop <-chan struct{}, dst []event.Event) (ReplicaFetchResult, error) {
	r := f.Replicator()
	if r == nil {
		return ReplicaFetchResult{}, ErrNoReplicator
	}
	return r.ReplicaFetch(followerID, TP{Topic: topic, Partition: partition}, epoch, offset, maxEvents, maxBytes, wait, stop, dst)
}

// ReplicaAck is the fabric entry point for the wire server's
// OpReplicaAck.
func (f *Fabric) ReplicaAck(followerID int, topic string, partition int, epoch, leo int64) error {
	r := f.Replicator()
	if r == nil {
		return ErrNoReplicator
	}
	return r.ReplicaAck(followerID, TP{Topic: topic, Partition: partition}, epoch, leo)
}

// ReplicaStatusFor reports a partition's replication state, false when
// no replication subsystem is attached or the partition is untracked.
func (f *Fabric) ReplicaStatusFor(topic string, partition int) (ReplicaStatus, bool) {
	r := f.Replicator()
	if r == nil {
		return ReplicaStatus{}, false
	}
	return r.Status(TP{Topic: topic, Partition: partition})
}

// LeaderLogInfo resolves a partition's leader log and current leader
// epoch — the read surface the replication subsystem serves follower
// fetches from. Fails like any data-plane call when the partition is
// leaderless (ErrNoLeader) or its leader is down (ErrLeaderUnavailable).
func (f *Fabric) LeaderLogInfo(topic string, partition int) (*eventlog.Log, int64, error) {
	pr, err := f.partitionRoute(topic, partition)
	if err != nil {
		return nil, 0, err
	}
	return pr.log, pr.leaderEpoch, nil
}

// BrokerLog returns broker id's own replica log for the partition,
// opening (and, for DataDir-backed brokers, replaying) it if needed —
// the local log a replication fetch loop appends to. A follower calls it
// every fetch round, so a log that is already open is returned without
// reading (and JSON-decoding) the topic's metadata from the controller;
// only opening a log needs the topic's config.
func (f *Fabric) BrokerLog(id int, topic string, partition int) (*eventlog.Log, error) {
	n, ok := f.Node(id)
	if !ok {
		return nil, fmt.Errorf("broker: unknown broker %d", id)
	}
	tp := TP{Topic: topic, Partition: partition}
	if l, ok := n.existingLog(tp); ok {
		return l, nil
	}
	meta, err := f.Ctl.Topic(topic)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(meta.Partitions) {
		return nil, fmt.Errorf("%w: %s/%d", ErrNoPartition, topic, partition)
	}
	return n.log(tp, logConfig(meta.Config))
}

// CrashBroker simulates kill -9: the node's in-memory state is dropped
// on the spot — no graceful leadership handoff, no flush beyond what
// each append batch already persisted — and only then does the control
// plane notice the death (session expiry, leader re-election). Replica
// logs backed by a DataDir keep their segment files and replay them in
// RecoverBroker; in-memory logs are simply gone.
func (f *Fabric) CrashBroker(id int) error {
	n, ok := f.Node(id)
	if !ok {
		return fmt.Errorf("broker: unknown broker %d", id)
	}
	n.down.Store(true)
	n.dropLogs()
	f.Reg.ExpireSession(n.session)
	f.Ctl.HandleBrokerFailure(id)
	f.Metrics.Counter("fabric.broker_failures").Inc()
	return nil
}

// RecoverBroker brings a crashed broker back the durable way: every
// replica log it hosts is reopened (replaying local segment files), the
// broker re-registers, and it starts serving — but unlike
// RestartBroker it does NOT rejoin ISR sets wholesale. The replication
// subsystem's fetch loops truncate each replica to the leader epoch
// fence, catch up over OpReplicaFetch, and expand the ISR per partition
// once the replica's fetch offset reaches the leader's log end.
func (f *Fabric) RecoverBroker(id int) error {
	n, ok := f.Node(id)
	if !ok {
		return fmt.Errorf("broker: unknown broker %d", id)
	}
	if !n.Down() {
		return nil
	}
	for _, topic := range f.Ctl.Topics() {
		meta, err := f.Ctl.Topic(topic)
		if err != nil {
			continue
		}
		for _, pm := range meta.Partitions {
			if !pm.HasReplica(id) {
				continue
			}
			tp := TP{Topic: topic, Partition: pm.ID}
			if _, err := n.log(tp, logConfig(meta.Config)); err != nil {
				return fmt.Errorf("broker: recover %s on %d: %w", tp, id, err)
			}
		}
	}
	sess, err := f.Ctl.RegisterBroker(n.InfoCopy())
	if err != nil {
		return err
	}
	n.session = sess
	n.down.Store(false)
	return nil
}

// tieredFetch serves a fetch whose offset fell below the local log
// start from the archive tier, if one is attached. The error passed in
// is the log's out-of-range error, returned unchanged when tiered reads
// cannot help.
func (f *Fabric) tieredFetch(pr *partitionRoute, topic string, partition int, offset int64, maxEvents, maxBytes int, dst []event.Event, logErr error) (FetchResult, error) {
	tr := f.tieredReader()
	if tr == nil || offset < 0 || !errors.Is(logErr, eventlog.ErrOffsetOutOfRange) || offset >= pr.log.StartOffset() {
		return FetchResult{}, logErr
	}
	evs, err := tr.ReadTier(topic, partition, offset, maxEvents, maxBytes, dst)
	if err != nil || len(evs) == 0 {
		// Archive miss or archive trouble: the original out-of-range
		// error describes the local log truthfully.
		return FetchResult{}, logErr
	}
	f.cFetched.Add(int64(len(evs)))
	return FetchResult{Events: evs, HighWatermark: pr.log.EndOffset(), StartOffset: offset}, nil
}
