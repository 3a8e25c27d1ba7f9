package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// Controller is the cluster's single control-plane authority. It
// publishes broker membership and topic metadata as one immutable
// Snapshot: mutations (topic creation, partition assignment, leader
// election, ISR changes) are serialized under a mutex, each builds the
// next snapshot by cloning only what it changes, and readers load the
// current snapshot with one atomic read and never take the lock. What a
// reader sees is therefore always one consistent state: the epoch and
// the content it numbers.
type Controller struct {
	mu    sync.Mutex
	clock vclock.Clock
	snap  atomic.Pointer[Snapshot]
	// rr rotates the starting broker for partition assignment so load
	// spreads across the cluster as topics are created.
	rr int

	// watchMu guards the epoch watchers. A separate mutex, not c.mu:
	// watcher (un)registration must never contend with topic mutation.
	watchMu  sync.Mutex
	watchers map[uint64]chan struct{}
	watchID  uint64
}

// Snapshot is one published state of the controller. A published
// snapshot is never written again and its maps and metadata are shared
// by every reader: readers must not modify anything reachable from it.
type Snapshot struct {
	// Epoch increments on every metadata mutation (topic create/delete,
	// partition growth, config change, leader election, ISR change,
	// broker registration or address change). A deregistration changes
	// no placement and keeps the epoch of the snapshot it replaces.
	Epoch int64
	// Brokers holds the live (registered) brokers by id.
	Brokers map[int]BrokerInfo
	// Topics holds each topic's metadata by name.
	Topics map[string]*TopicMeta
}

// topic returns the snapshot's metadata of a topic, not a copy.
func (s *Snapshot) topic(name string) (*TopicMeta, error) {
	meta, ok := s.Topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTopic, name)
	}
	return meta, nil
}

// partition returns the snapshot's metadata of one partition, not a
// copy.
func (s *Snapshot) partition(topic string, id int) (*PartitionMeta, error) {
	meta, err := s.topic(topic)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= len(meta.Partitions) {
		return nil, fmt.Errorf("cluster: %s has no partition %d", topic, id)
	}
	return &meta.Partitions[id], nil
}

// Snapshot returns the current published state. It takes no lock; the
// result is read-only.
func (c *Controller) Snapshot() *Snapshot { return c.snap.Load() }

// Epoch returns the current snapshot's epoch.
func (c *Controller) Epoch() int64 { return c.Snapshot().Epoch }

// publish stores next as the current snapshot under the following epoch
// and pokes every registered epoch watcher. The caller holds c.mu and
// has written nothing that the current snapshot shares.
func (c *Controller) publish(next Snapshot) {
	next.Epoch++
	c.snap.Store(&next)
	c.watchMu.Lock()
	for _, ch := range c.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending tick; bursts coalesce
		}
	}
	c.watchMu.Unlock()
}

// publishTopic publishes the current snapshot with one topic's metadata
// replaced by meta, which the caller has cloned. The caller holds c.mu.
func (c *Controller) publishTopic(meta *TopicMeta) {
	next := *c.Snapshot()
	next.Topics = maps.Clone(next.Topics)
	next.Topics[meta.Name] = meta
	c.publish(next)
}

// WatchEpoch registers an epoch watcher: the returned channel receives
// a tick (capacity one, bursts coalesce) after every epoch bump. It is
// the push side of metadata distribution — a broker's wire server
// watches the epoch and pushes fresh metadata to connected clients the
// moment leadership changes, instead of each client discovering the
// change by eating a failed request. Watchers read the channel, then
// the Snapshot, so a coalesced burst still observes the final state.
// The returned cancel function unregisters; it is idempotent and must
// be called to free the watcher.
func (c *Controller) WatchEpoch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.watchMu.Lock()
	c.watchID++
	id := c.watchID
	if c.watchers == nil {
		c.watchers = make(map[uint64]chan struct{})
	}
	c.watchers[id] = ch
	c.watchMu.Unlock()
	return ch, func() {
		c.watchMu.Lock()
		delete(c.watchers, id)
		c.watchMu.Unlock()
	}
}

// NewController creates a controller with no brokers and no topics.
func NewController(clock vclock.Clock) *Controller {
	if clock == nil {
		clock = vclock.Real{}
	}
	c := &Controller{clock: clock}
	c.snap.Store(&Snapshot{Brokers: map[int]BrokerInfo{}, Topics: map[string]*TopicMeta{}})
	return c
}

// RegisterBroker records a live broker. Registering an id that is
// already live fails; DeregisterBroker ends the registration.
func (c *Controller) RegisterBroker(info BrokerInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.Snapshot()
	if _, ok := next.Brokers[info.ID]; ok {
		return fmt.Errorf("cluster: register broker %d: already registered", info.ID)
	}
	next.Brokers = maps.Clone(next.Brokers)
	next.Brokers[info.ID] = info
	c.publish(next)
	return nil
}

// DeregisterBroker removes a broker from the live set: the broker has
// died or stopped. It does not touch topic metadata — leader election
// is HandleBrokerFailure's job, and a drained broker goes through that
// without being deregistered — so it publishes the smaller live set
// under the current epoch.
func (c *Controller) DeregisterBroker(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.Snapshot()
	next.Brokers = maps.Clone(next.Brokers)
	delete(next.Brokers, id)
	c.snap.Store(&next)
}

// SetBrokerAddr updates a registered broker's advertised address — the
// clusternet serving layer binds each broker's wire listener after the
// broker registers (the OS picks ephemeral ports), then publishes the
// bound address here so metadata responses can route clients to it.
// Bumps the metadata epoch: an address change invalidates every
// client-side routing table.
func (c *Controller) SetBrokerAddr(id int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.Snapshot()
	info, ok := next.Brokers[id]
	if !ok {
		return fmt.Errorf("cluster: broker %d not registered", id)
	}
	info.Addr = addr
	next.Brokers = maps.Clone(next.Brokers)
	next.Brokers[id] = info
	c.publish(next)
	return nil
}

// LiveBrokers returns the sorted ids of registered brokers.
func (c *Controller) LiveBrokers() []int {
	return slices.Sorted(maps.Keys(c.Snapshot().Brokers))
}

// BrokerInfo returns a registered broker's description.
func (c *Controller) BrokerInfo(id int) (BrokerInfo, error) {
	info, ok := c.Snapshot().Brokers[id]
	if !ok {
		return BrokerInfo{}, fmt.Errorf("cluster: broker %d not registered", id)
	}
	return info, nil
}

// CreateTopic provisions a topic, assigning partition replicas across
// live brokers round-robin (leader first, then rf-1 followers on the
// next brokers). Creation is idempotent for an identical owner: the OWS
// PUT route may be retried (§IV-F).
func (c *Controller) CreateTopic(name, owner string, cfg TopicConfig) (*TopicMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cur := c.Snapshot()
	if existing, ok := cur.Topics[name]; ok {
		if existing.Owner == owner {
			return existing.clone(), nil // idempotent retry
		}
		return nil, fmt.Errorf("%w: %s (owned by %s)", ErrTopicExists, name, existing.Owner)
	}
	brokers := slices.Sorted(maps.Keys(cur.Brokers))
	if len(brokers) == 0 {
		return nil, ErrNoBrokers
	}
	rf := cfg.ReplicationFactor
	if rf > len(brokers) {
		rf = len(brokers)
		cfg.ReplicationFactor = rf
	}
	meta := &TopicMeta{Name: name, Config: cfg, Owner: owner, CreatedAt: c.clock.Now()}
	for p := 0; p < cfg.Partitions; p++ {
		meta.Partitions = append(meta.Partitions, c.assignLocked(name, p, brokers, rf))
	}
	c.publishTopic(meta)
	return meta.clone(), nil
}

// assignLocked picks a replica set for one partition.
func (c *Controller) assignLocked(topic string, id int, brokers []int, rf int) PartitionMeta {
	replicas := make([]int, 0, rf)
	start := c.rr
	c.rr++
	for i := 0; i < rf; i++ {
		replicas = append(replicas, brokers[(start+i)%len(brokers)])
	}
	return PartitionMeta{
		Topic:    topic,
		ID:       id,
		Leader:   replicas[0],
		Replicas: replicas,
		ISR:      append([]int(nil), replicas...),
	}
}

// Topic returns a copy of a topic's metadata.
func (c *Controller) Topic(name string) (*TopicMeta, error) {
	meta, err := c.Snapshot().topic(name)
	if err != nil {
		return nil, err
	}
	return meta.clone(), nil
}

// Topics returns all topic names, sorted.
func (c *Controller) Topics() []string {
	return slices.Sorted(maps.Keys(c.Snapshot().Topics))
}

// DeleteTopic removes a topic's metadata.
func (c *Controller) DeleteTopic(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.Snapshot()
	if _, err := next.topic(name); err != nil {
		return err
	}
	next.Topics = maps.Clone(next.Topics)
	delete(next.Topics, name)
	c.publish(next)
	return nil
}

// SetPartitions grows a topic's partition count (Kafka forbids
// shrinking; so do we). New partitions are assigned across live brokers.
func (c *Controller) SetPartitions(name string, n int) (*TopicMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.Snapshot()
	meta, err := cur.topic(name)
	if err != nil {
		return nil, err
	}
	if n < meta.Config.Partitions {
		return nil, fmt.Errorf("%w: %d -> %d", ErrShrinkPartitions, meta.Config.Partitions, n)
	}
	if n == meta.Config.Partitions {
		return meta.clone(), nil
	}
	brokers := slices.Sorted(maps.Keys(cur.Brokers))
	if len(brokers) == 0 {
		return nil, ErrNoBrokers
	}
	rf := meta.Config.ReplicationFactor
	if rf > len(brokers) {
		rf = len(brokers)
	}
	meta = meta.clone()
	for p := meta.Config.Partitions; p < n; p++ {
		meta.Partitions = append(meta.Partitions, c.assignLocked(name, p, brokers, rf))
	}
	meta.Config.Partitions = n
	c.publishTopic(meta)
	return meta.clone(), nil
}

// SetConfig updates retention/compaction settings (partition count and
// replication factor are managed by their dedicated operations).
func (c *Controller) SetConfig(name string, cfg TopicConfig) (*TopicMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, err := c.Snapshot().topic(name)
	if err != nil {
		return nil, err
	}
	meta = meta.clone()
	if cfg.Retention > 0 {
		meta.Config.Retention = cfg.Retention
	}
	meta.Config.Compact = cfg.Compact
	c.publishTopic(meta)
	return meta.clone(), nil
}

// Partition returns a copy of one partition's metadata.
func (c *Controller) Partition(topic string, id int) (PartitionMeta, error) {
	p, err := c.Snapshot().partition(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	return p.clone(), nil
}

// updateWhere publishes the next snapshot with update applied to every
// partition that match selects, returning copies of the updated
// partitions. Topics are cloned only when one of their partitions
// changes. The caller holds c.mu.
func (c *Controller) updateWhere(match func(*PartitionMeta) bool, update func(*PartitionMeta)) []PartitionMeta {
	next := *c.Snapshot()
	next.Topics = maps.Clone(next.Topics)
	var changed []PartitionMeta
	for _, name := range slices.Sorted(maps.Keys(next.Topics)) {
		meta := next.Topics[name]
		cloned := false
		for i := range meta.Partitions {
			if !match(&meta.Partitions[i]) {
				continue
			}
			if !cloned {
				meta, cloned = meta.clone(), true
				next.Topics[name] = meta
			}
			p := &meta.Partitions[i]
			update(p)
			changed = append(changed, p.clone())
		}
	}
	c.publish(next)
	return changed
}

// HandleBrokerFailure re-elects leaders for every partition led by the
// failed broker, choosing the first surviving ISR member, and removes
// the broker from ISR sets. Partitions with no surviving ISR member are
// left leaderless (Leader = -1) until the broker returns. It leaves
// broker membership alone: a drained broker stays registered, and a
// dead one is deregistered by its caller.
func (c *Controller) HandleBrokerFailure(brokerID int) []PartitionMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	hosts := func(p *PartitionMeta) bool { return p.HasReplica(brokerID) }
	return c.updateWhere(hosts, func(p *PartitionMeta) {
		p.ISR = slices.DeleteFunc(p.ISR, func(r int) bool { return r == brokerID })
		if p.Leader == brokerID {
			if len(p.ISR) > 0 {
				p.Leader = p.ISR[0]
			} else {
				p.Leader = -1
			}
			p.LeaderEpoch++
		}
	})
}

// HandleBrokerRecovery restores a broker to the ISR of every partition
// that lists it as a replica (the broker must have caught up first) and
// re-elects it leader for leaderless partitions.
func (c *Controller) HandleBrokerRecovery(brokerID int) []PartitionMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	outOfISR := func(p *PartitionMeta) bool { return p.HasReplica(brokerID) && !p.InISR(brokerID) }
	return c.updateWhere(outOfISR, func(p *PartitionMeta) { p.rejoin(brokerID) })
}

// ExpandISR adds a caught-up replica back to one partition's in-sync
// set — the per-partition rejoin path replication uses once a follower's
// fetch offset reaches the leader's log end. If the partition is
// leaderless the rejoining replica is elected leader (bumping the leader
// epoch). Adding a broker that is not a replica is an error; adding one
// already in the ISR is a no-op.
func (c *Controller) ExpandISR(topic string, id, brokerID int) (PartitionMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.Snapshot().partition(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	if !p.HasReplica(brokerID) {
		return p.clone(), fmt.Errorf("cluster: broker %d is not a replica of %s/%d", brokerID, topic, id)
	}
	if p.InISR(brokerID) {
		return p.clone(), nil
	}
	return c.updatePartition(topic, id, func(p *PartitionMeta) { p.rejoin(brokerID) }), nil
}

// ShrinkISR removes a lagging replica from one partition's in-sync set,
// so acks=all produces stop waiting on it. The leader itself is never
// removed this way (leader loss goes through HandleBrokerFailure).
// Removing a broker not in the ISR is a no-op.
func (c *Controller) ShrinkISR(topic string, id, brokerID int) (PartitionMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.Snapshot().partition(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	if p.Leader == brokerID || !p.InISR(brokerID) {
		return p.clone(), nil
	}
	return c.updatePartition(topic, id, func(p *PartitionMeta) {
		p.ISR = slices.DeleteFunc(p.ISR, func(r int) bool { return r == brokerID })
	}), nil
}

// updatePartition publishes the next snapshot with update applied to
// one existing partition and returns a copy of the result. The caller
// holds c.mu.
func (c *Controller) updatePartition(topic string, id int, update func(*PartitionMeta)) PartitionMeta {
	meta := c.Snapshot().Topics[topic].clone()
	update(&meta.Partitions[id])
	c.publishTopic(meta)
	return meta.Partitions[id].clone()
}
