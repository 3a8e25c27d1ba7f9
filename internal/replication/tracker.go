package replication

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// Tracker is the leader/controller half of replication, attached to
// the fabric via Fabric.SetReplicator. One Tracker serves the whole
// fabric (it is keyed by partition, not broker): the paper's
// controller tracks follower progress for every partition, and the
// per-broker wire servers all dispatch into it.
type Tracker struct {
	f   *broker.Fabric
	cfg Config

	mu    sync.Mutex
	parts map[broker.TP]*partState

	// underRepl gauges the number of tracked partitions whose ISR is
	// smaller than their replica set.
	underRepl *metrics.Gauge
	// Pre-resolved hot-path histograms (see ISSUE 10): HW advance batch
	// sizes, acks=all wait latency, and leader-side replica fetch batch
	// sizes. Resolved once; the tracker never touches the registry map
	// on a produce or fetch path.
	hHwAdvance    *metrics.BucketHist
	hCommitWaitNs *metrics.BucketHist
	hFetchServed  *metrics.BucketHist
}

// partState is one partition's tracked replication state.
type partState struct {
	// pm is the partition's metadata in snap, the controller snapshot it
	// was last refreshed from: read-only, and empty before the first
	// refresh.
	snap *cluster.Snapshot
	pm   *cluster.PartitionMeta

	// leaderLEO is the leader's log end; followers maps each follower
	// broker to the log end it has acked (via fetch offset or explicit
	// ack).
	leaderLEO int64
	followers map[int]int64
	// hw is the partition high watermark: max(previous hw, min over
	// ISR members' tracked LEOs). Monotonic.
	hw int64
	// hwCh wakes WaitCommitted callers on HW advance; nil when no one
	// waits.
	hwCh chan struct{}

	hwGauge *metrics.Gauge
	lag     map[int]*metrics.Gauge
}

// NewTracker creates the tracker for a fabric. Attach it with
// f.SetReplicator(t).
func NewTracker(f *broker.Fabric, cfg Config) *Tracker {
	cfg.fill()
	return &Tracker{
		f: f, cfg: cfg,
		parts:         make(map[broker.TP]*partState),
		underRepl:     f.Metrics.Gauge("replication.under_replicated"),
		hHwAdvance:    f.Metrics.BucketHist("replication.hw_advance_events"),
		hCommitWaitNs: f.Metrics.BucketHist("replication.wait_committed_ns"),
		hFetchServed:  f.Metrics.BucketHist("replication.replica_fetch_events"),
	}
}

// stateLocked returns (creating and refreshing as needed) tp's state.
// Callers hold t.mu.
func (t *Tracker) stateLocked(tp broker.TP) *partState {
	st := t.parts[tp]
	if st == nil {
		st = &partState{
			pm:        new(cluster.PartitionMeta),
			followers: make(map[int]int64),
			hwGauge:   t.f.Metrics.Gauge(fmt.Sprintf("replication.hw.%s", tp)),
			lag:       make(map[int]*metrics.Gauge),
		}
		t.parts[tp] = st
		// Seed the leader LEO from the live log so a partition tracked
		// for the first time after appends (tracker attached late, or a
		// leader elected with data) does not report a zero log end.
		if log, _, err := t.f.LeaderLogInfo(tp.Topic, tp.Partition); err == nil {
			st.leaderLEO = log.EndOffset()
		}
	}
	t.refreshLocked(tp, st)
	return st
}

// refreshLocked takes the partition's metadata from the controller's
// current snapshot when a new one was published since the last refresh,
// then recomputes the HW (an ISR shrink can advance it) and the
// under-replicated gauge.
func (t *Tracker) refreshLocked(tp broker.TP, st *partState) {
	s := t.f.Ctl.Snapshot()
	if st.snap == s {
		return
	}
	meta, ok := s.Topics[tp.Topic]
	if !ok || tp.Partition < 0 || tp.Partition >= len(meta.Partitions) {
		return
	}
	st.snap, st.pm = s, &meta.Partitions[tp.Partition]
	t.recomputeLocked(st)

	under := int64(0)
	for _, s := range t.parts {
		if len(s.pm.ISR) < len(s.pm.Replicas) {
			under++
		}
	}
	t.underRepl.Set(under)
}

// recomputeLocked applies the HW advance rule and wakes committed-wait
// callers when it moved. Callers hold t.mu.
func (t *Tracker) recomputeLocked(st *partState) {
	if len(st.pm.ISR) == 0 {
		return
	}
	min := int64(-1)
	for _, id := range st.pm.ISR {
		leo := st.followers[id]
		if id == st.pm.Leader {
			leo = st.leaderLEO
		}
		if min < 0 || leo < min {
			min = leo
		}
	}
	if min > st.hw {
		// The advance size distribution answers "does the HW move in
		// produce-batch strides or crawl record by record" — the shape
		// behind the acks=all latency number.
		t.hHwAdvance.Observe(min - st.hw)
		st.hw = min
		st.hwGauge.Set(min)
		if st.hwCh != nil {
			close(st.hwCh)
			st.hwCh = nil
		}
	}
}

// lagGaugeLocked returns the per-follower lag gauge, creating it on
// first use.
func (t *Tracker) lagGaugeLocked(tp broker.TP, st *partState, followerID int) *metrics.Gauge {
	g := st.lag[followerID]
	if g == nil {
		g = t.f.Metrics.Gauge(fmt.Sprintf("replication.lag.%s.broker%d", tp, followerID))
		st.lag[followerID] = g
	}
	return g
}

// ackLocked records a follower's replicated log end and expands it
// back into the ISR once it has caught up to the leader's log end.
// Returns the controller expansion to run outside the lock (nil when
// none is due).
func (t *Tracker) ackLocked(tp broker.TP, st *partState, followerID int, leo int64) (expand bool) {
	if leo > st.followers[followerID] {
		st.followers[followerID] = leo
	}
	lag := st.leaderLEO - st.followers[followerID]
	if lag < 0 {
		lag = 0
	}
	t.lagGaugeLocked(tp, st, followerID).Set(lag)
	t.recomputeLocked(st)
	return followerID != st.pm.Leader && st.followers[followerID] >= st.leaderLEO && !st.pm.InISR(followerID)
}

// LeaderAppended implements broker.Replicator: the leader's own log
// end feeds the HW computation exactly like a follower ack.
func (t *Tracker) LeaderAppended(tp broker.TP, end int64) {
	t.mu.Lock()
	st := t.stateLocked(tp)
	if end > st.leaderLEO {
		st.leaderLEO = end
	}
	t.recomputeLocked(st)
	t.mu.Unlock()
}

// HighWatermark implements broker.Replicator.
func (t *Tracker) HighWatermark(tp broker.TP) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.parts[tp]
	if st == nil {
		return 0, false
	}
	return st.hw, true
}

// WaitCommitted implements broker.Replicator: block until the HW
// passes lastOffset. On timeout, followers still below the batch are
// shrunk out of the ISR — but never below min.insync.replicas, where
// the wait fails with ErrNotEnoughReplicas instead. With the default
// min of 1, followers that never ack shrink the ISR to the leader and
// the partition keeps serving as a single replica.
func (t *Tracker) WaitCommitted(tp broker.TP, lastOffset int64) error {
	t0 := time.Now()
	defer func() { t.hCommitWaitNs.Observe(int64(time.Since(t0))) }()
	timer := time.NewTimer(t.cfg.CommitTimeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		st := t.stateLocked(tp)
		if st.hw > lastOffset {
			t.mu.Unlock()
			return nil
		}
		if st.hwCh == nil {
			st.hwCh = make(chan struct{})
		}
		ch := st.hwCh
		t.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return t.evictLaggards(tp, lastOffset)
		}
	}
}

// evictLaggards shrinks ISR followers that have not replicated past
// lastOffset, stopping at min.insync.replicas, then re-checks the HW.
func (t *Tracker) evictLaggards(tp broker.TP, lastOffset int64) error {
	t.mu.Lock()
	st := t.stateLocked(tp)
	var laggards []int
	for _, id := range st.pm.ISR {
		if id != st.pm.Leader && st.followers[id] <= lastOffset {
			laggards = append(laggards, id)
		}
	}
	isrSize := len(st.pm.ISR)
	t.mu.Unlock()

	min := t.f.MinInsyncReplicas
	if min < 1 {
		min = 1
	}
	for _, id := range laggards {
		if isrSize <= min {
			break
		}
		if _, err := t.f.Ctl.ShrinkISR(tp.Topic, tp.Partition, id); err == nil {
			isrSize--
		}
	}

	t.mu.Lock()
	st = t.stateLocked(tp)
	hw := st.hw
	isrSize = len(st.pm.ISR)
	t.mu.Unlock()
	if hw > lastOffset {
		return nil
	}
	return fmt.Errorf("%w: hw %d after shrink, isr=%d min=%d",
		broker.ErrNotEnoughReplicas, hw, isrSize, min)
}

// fence validates a replication op's leader epoch against the
// partition's current one.
func fence(tp broker.TP, have, want int64) error {
	if have != want {
		return fmt.Errorf("%w: %s epoch %d, current %d", broker.ErrFencedEpoch, tp, have, want)
	}
	return nil
}

// ReplicaFetch implements broker.Replicator: serve one follower pull
// from the leader log, as the records' stored bytes. The fetch offset
// acks everything below it. A fetch outside the leader log's range is
// answered with no records and the log's framing offsets — the follower
// reconciles (reset to LogStart, or truncate to LogEnd) and re-fetches.
func (t *Tracker) ReplicaFetch(followerID int, tp broker.TP, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, stop <-chan struct{}, b *eventlog.Encoded) (broker.ReplicaFetchResult, error) {
	log, curEpoch, err := t.f.LeaderLogInfo(tp.Topic, tp.Partition)
	if err != nil {
		return broker.ReplicaFetchResult{}, err
	}
	if err := fence(tp, epoch, curEpoch); err != nil {
		return broker.ReplicaFetchResult{}, err
	}

	t.mu.Lock()
	st := t.stateLocked(tp)
	if end := log.EndOffset(); end > st.leaderLEO {
		st.leaderLEO = end
	}
	expand := t.ackLocked(tp, st, followerID, offset)
	t.mu.Unlock()
	if expand {
		// Caught up: rejoin the ISR. Controller call outside t.mu — it
		// locks the controller and bumps the epoch, which re-enters the
		// tracker through the next refresh.
		_, _ = t.f.Ctl.ExpandISR(tp.Topic, tp.Partition, followerID)
	}

	res := broker.ReplicaFetchResult{LeaderEpoch: curEpoch}
	rerr := log.ReadEncoded(offset, maxEvents, maxBytes, b)
	if rerr == nil && b.Events == 0 && wait > 0 && eventlog.WaitReadable(log, offset, wait, stop) {
		rerr = log.ReadEncoded(offset, maxEvents, maxBytes, b)
	}
	if rerr == nil && b.Events > 0 {
		// Data-carrying serves only: a lapsed long poll says nothing
		// about replication batch sizing.
		t.hFetchServed.Observe(int64(b.Events))
	}
	// Out-of-range reads fall through with no events: the framing
	// offsets below tell the follower how to reconcile.
	hw, _ := t.HighWatermark(tp)
	res.HighWatermark = hw
	res.LogStart = log.StartOffset()
	res.LogEnd = log.EndOffset()
	return res, nil
}

// ReplicaAck implements broker.Replicator: an explicit post-append ack
// that advances the HW without waiting for the follower's next fetch.
func (t *Tracker) ReplicaAck(followerID int, tp broker.TP, epoch, leo int64) error {
	_, curEpoch, err := t.f.LeaderLogInfo(tp.Topic, tp.Partition)
	if err != nil {
		return err
	}
	if err := fence(tp, epoch, curEpoch); err != nil {
		return err
	}
	t.mu.Lock()
	st := t.stateLocked(tp)
	expand := t.ackLocked(tp, st, followerID, leo)
	t.mu.Unlock()
	if expand {
		_, _ = t.f.Ctl.ExpandISR(tp.Topic, tp.Partition, followerID)
	}
	return nil
}

// Status implements broker.Replicator.
func (t *Tracker) Status(tp broker.TP) (broker.ReplicaStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.parts[tp]
	if st == nil {
		return broker.ReplicaStatus{}, false
	}
	t.refreshLocked(tp, st)
	s := broker.ReplicaStatus{
		LeaderEpoch:   st.pm.LeaderEpoch,
		HighWatermark: st.hw,
		LogEnd:        st.leaderLEO,
	}
	for id, leo := range st.followers {
		s.Followers = append(s.Followers, broker.FollowerState{Broker: id, LogEnd: leo})
	}
	sort.Slice(s.Followers, func(i, j int) bool { return s.Followers[i].Broker < s.Followers[j].Broker })
	return s, true
}
