package broker

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// Routing cache: the produce/fetch hot path must not copy metadata.
//
// The fabric resolves each topic of a controller snapshot once into a
// topicRoute: partition leaders, their *eventlog.Log handles, and the
// in-sync follower handles replication writes to. The cached routes form
// one table per snapshot; a call that finds the table built for an older
// snapshot replaces it whole, so deleted topics and superseded
// placements leave with it. Validity is one pointer comparison per call,
// and failover correctness reduces to "every leader change publishes a
// new snapshot", which the controller guarantees.

// partitionRoute is one partition's resolved placement.
type partitionRoute struct {
	// leaderID is the broker id serving the partition, -1 if leaderless.
	leaderID int
	// leader is the resolved leader node (nil when leaderless); its Down
	// flag is still checked per call, covering the window between a
	// broker stopping and the controller's re-election bumping the epoch.
	leader *Node
	// log is the leader's replica log.
	log *eventlog.Log
	// leaderEpoch is the partition's leader epoch at route-build time;
	// replication fetches are fenced against it.
	leaderEpoch int64
	// followers are the in-sync, live follower logs (leader excluded)
	// that synchronous replication appends to.
	followers []*eventlog.Log
	// isr is the ISR size, used by the acks=all admission check.
	isr int
}

// topicRoute is a topic's fully resolved routing table.
type topicRoute struct {
	meta  *cluster.TopicMeta
	parts []partitionRoute
}

// routeTable caches the topicRoutes built from one controller snapshot.
type routeTable struct {
	snap   *cluster.Snapshot
	topics sync.Map // map[string]*topicRoute
}

// route returns the topic's routing table, building it if the cached
// table is for an older snapshot or lacks the topic.
func (f *Fabric) route(topic string) (*topicRoute, error) {
	// Load the table before the snapshot: the table's snapshot was
	// current before it was stored, so it is never newer than s, and
	// replacing it never moves the cache backwards.
	tab := f.routes.Load()
	s := f.Ctl.Snapshot()
	if tab.snap != s {
		next := &routeTable{snap: s}
		f.routes.CompareAndSwap(tab, next)
		tab = next
	}
	if v, ok := tab.topics.Load(topic); ok {
		return v.(*topicRoute), nil
	}
	return f.buildRoute(tab, topic)
}

// buildRoute resolves a topic's metadata in tab's snapshot into log
// handles and caches it in tab.
func (f *Fabric) buildRoute(tab *routeTable, topic string) (*topicRoute, error) {
	meta, ok := tab.snap.Topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %s", cluster.ErrNoTopic, topic)
	}
	rt := &topicRoute{meta: meta, parts: make([]partitionRoute, len(meta.Partitions))}
	lcfg := logConfig(meta.Config)
	if h := f.hot.Load(); h != nil {
		// Newly opened partition logs report append latency and batch
		// bytes into the fabric-wide eventlog histograms. Logs cached
		// from before a SetHotPathMetrics toggle keep their original
		// wiring (observer config is fixed at open).
		lcfg.AppendLatency = h.logAppendNs
		lcfg.AppendBytes = h.logAppendBytes
	}
	for i := range meta.Partitions {
		pm := &meta.Partitions[i]
		pr := &rt.parts[i]
		pr.leaderID = pm.Leader
		pr.isr = len(pm.ISR)
		if pm.Leader < 0 {
			continue
		}
		leader, ok := f.Node(pm.Leader)
		if !ok {
			pr.leaderID = -1
			continue
		}
		tp := TP{Topic: meta.Name, Partition: pm.ID}
		log, err := leader.log(tp, lcfg)
		if err != nil {
			return nil, err
		}
		pr.leader, pr.log, pr.leaderEpoch = leader, log, pm.LeaderEpoch
		for _, r := range pm.ISR {
			if r == pm.Leader {
				continue
			}
			fn, ok := f.Node(r)
			if !ok || fn.Down() {
				continue
			}
			fl, err := fn.log(tp, lcfg)
			if err != nil {
				return nil, err
			}
			pr.followers = append(pr.followers, fl)
		}
	}
	tab.topics.Store(topic, rt)
	return rt, nil
}

// partitionRoute resolves one partition for the fetch-side paths,
// enforcing leader availability.
func (f *Fabric) partitionRoute(topic string, partition int) (*partitionRoute, error) {
	rt, err := f.route(topic)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(rt.parts) {
		return nil, fmt.Errorf("cluster: %s has no partition %d", topic, partition)
	}
	pr := &rt.parts[partition]
	if pr.leaderID < 0 || pr.leader == nil {
		return nil, fmt.Errorf("%w: %s/%d", ErrNoLeader, topic, partition)
	}
	if pr.leader.Down() {
		return nil, fmt.Errorf("%w: %s/%d", ErrLeaderUnavailable, topic, partition)
	}
	return pr, nil
}

// produceScratch is the reusable working set of a produce that routes
// per event: the per-partition buckets events are grouped into, and the
// order partitions were first hit in. Pooled so routing allocates
// nothing in the steady state.
type produceScratch struct {
	order   []int
	buckets [][]event.Event
}

var scratchPool = sync.Pool{New: func() any { return new(produceScratch) }}

// bucket groups evs by partition (key hash, else round-robin) over
// parts partitions.
func (s *produceScratch) bucket(evs []event.Event, parts int) {
	s.order = s.order[:0]
	if cap(s.buckets) < parts {
		s.buckets = make([][]event.Event, parts)
	}
	s.buckets = s.buckets[:parts]
	for i := range evs {
		// Always in [0, parts): normalize() guarantees parts >= 1.
		p := partitionFor(&evs[i], parts)
		if len(s.buckets[p]) == 0 {
			s.order = append(s.order, p)
		}
		s.buckets[p] = append(s.buckets[p], evs[i])
	}
}

// release clears event references (so the pool does not pin the
// caller's buffers) and returns the scratch to the pool.
func (s *produceScratch) release() {
	for i := range s.buckets {
		clear(s.buckets[i])
		s.buckets[i] = s.buckets[i][:0]
	}
	scratchPool.Put(s)
}

// FNV-1a, inlined: hash/fnv allocates a hasher per call, which is pure
// overhead on the keyed-routing hot path. Constants and algorithm match
// hash/fnv's 32-bit variant exactly, so key→partition routing is stable
// across the change.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(b []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// PartitionForKey is the fabric's keyed partitioner (FNV-1a over the
// key, modulo the partition count), exported so leader-direct wire
// clients can pre-partition a keyed batch on their side and still land
// every event on exactly the partition the fabric itself would pick.
func PartitionForKey(key []byte, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(fnv1a(key) % uint32(parts))
}
