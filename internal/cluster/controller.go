package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// Controller is the cluster's single control-plane authority. It holds
// broker membership and topic metadata as typed state under one lock:
// mutations (topic creation, partition assignment, leader election, ISR
// changes) are serialized, and every read returns a deep copy, so
// brokers and the web service observe a consistent view and may keep or
// modify what they were handed.
type Controller struct {
	mu    sync.RWMutex
	clock vclock.Clock
	// brokers holds the live (registered) brokers by id.
	brokers map[int]BrokerInfo
	// topics holds each topic's metadata. Stored values are never handed
	// out: readers get a clone.
	topics map[string]*TopicMeta
	// rr rotates the starting broker for partition assignment so load
	// spreads across the cluster as topics are created.
	rr int
	// epoch increments on every metadata mutation (topic create/delete,
	// partition growth, config change, leader election, ISR change,
	// broker registration). Data-plane caches key their entries by it:
	// comparing two atomic loads replaces a locked metadata copy on
	// every produce/fetch.
	epoch atomic.Int64

	// watchMu guards the epoch watchers. A separate mutex, not c.mu:
	// watcher (un)registration must never contend with topic mutation.
	watchMu  sync.Mutex
	watchers map[uint64]chan struct{}
	watchID  uint64
}

// Epoch returns the current metadata epoch. It increases monotonically;
// any change that could affect routing (leaders, ISRs, partition counts)
// bumps it, so a cache entry tagged with an older epoch must be rebuilt.
func (c *Controller) Epoch() int64 { return c.epoch.Load() }

// bumpEpoch invalidates all epoch-tagged metadata caches and pokes
// every registered epoch watcher.
func (c *Controller) bumpEpoch() {
	c.epoch.Add(1)
	c.watchMu.Lock()
	for _, ch := range c.watchers {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending tick; bursts coalesce
		}
	}
	c.watchMu.Unlock()
}

// WatchEpoch registers an epoch watcher: the returned channel receives
// a tick (capacity one, bursts coalesce) after every epoch bump. It is
// the push side of metadata distribution — a broker's wire server
// watches the epoch and pushes fresh metadata to connected clients the
// moment leadership changes, instead of each client discovering the
// change by eating a failed request. Watchers read the channel, then
// Epoch()/topic state, so a coalesced burst still observes the final
// state. The returned cancel function unregisters; it is idempotent
// and must be called to free the watcher.
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
	return &Controller{clock: clock, brokers: make(map[int]BrokerInfo), topics: make(map[string]*TopicMeta)}
}

// RegisterBroker records a live broker. Registering an id that is
// already live fails; DeregisterBroker ends the registration.
func (c *Controller) RegisterBroker(info BrokerInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.brokers[info.ID]; ok {
		return fmt.Errorf("cluster: register broker %d: already registered", info.ID)
	}
	c.brokers[info.ID] = info
	c.bumpEpoch()
	return nil
}

// DeregisterBroker removes a broker from the live set: the broker has
// died or stopped. It does not touch topic metadata — leader election
// is HandleBrokerFailure's job, and a drained broker goes through that
// without being deregistered — so it does not bump the epoch.
func (c *Controller) DeregisterBroker(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.brokers, id)
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
	info, ok := c.brokers[id]
	if !ok {
		return fmt.Errorf("cluster: broker %d not registered", id)
	}
	info.Addr = addr
	c.brokers[id] = info
	c.bumpEpoch()
	return nil
}

// LiveBrokers returns the sorted ids of registered brokers.
func (c *Controller) LiveBrokers() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Sorted(maps.Keys(c.brokers))
}

// BrokerInfo returns a registered broker's description.
func (c *Controller) BrokerInfo(id int) (BrokerInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info, ok := c.brokers[id]
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
	if existing, ok := c.topics[name]; ok {
		if existing.Owner == owner {
			return existing.clone(), nil // idempotent retry
		}
		return nil, fmt.Errorf("%w: %s (owned by %s)", ErrTopicExists, name, existing.Owner)
	}
	brokers := slices.Sorted(maps.Keys(c.brokers))
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
	c.topics[name] = meta
	c.bumpEpoch()
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

// topicLocked returns the stored metadata of a topic, not a copy; the
// caller holds c.mu.
func (c *Controller) topicLocked(name string) (*TopicMeta, error) {
	meta, ok := c.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTopic, name)
	}
	return meta, nil
}

// partitionLocked returns the stored metadata of one partition, not a
// copy; the caller holds c.mu.
func (c *Controller) partitionLocked(topic string, id int) (*PartitionMeta, error) {
	meta, err := c.topicLocked(topic)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= len(meta.Partitions) {
		return nil, fmt.Errorf("cluster: %s has no partition %d", topic, id)
	}
	return &meta.Partitions[id], nil
}

// Topic returns a copy of a topic's metadata.
func (c *Controller) Topic(name string) (*TopicMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	meta, err := c.topicLocked(name)
	if err != nil {
		return nil, err
	}
	return meta.clone(), nil
}

// Topics returns all topic names, sorted.
func (c *Controller) Topics() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Sorted(maps.Keys(c.topics))
}

// DeleteTopic removes a topic's metadata.
func (c *Controller) DeleteTopic(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.topicLocked(name); err != nil {
		return err
	}
	delete(c.topics, name)
	c.bumpEpoch()
	return nil
}

// SetPartitions grows a topic's partition count (Kafka forbids
// shrinking; so do we). New partitions are assigned across live brokers.
func (c *Controller) SetPartitions(name string, n int) (*TopicMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, err := c.topicLocked(name)
	if err != nil {
		return nil, err
	}
	if n < meta.Config.Partitions {
		return nil, fmt.Errorf("%w: %d -> %d", ErrShrinkPartitions, meta.Config.Partitions, n)
	}
	if n == meta.Config.Partitions {
		return meta.clone(), nil
	}
	brokers := slices.Sorted(maps.Keys(c.brokers))
	if len(brokers) == 0 {
		return nil, ErrNoBrokers
	}
	rf := meta.Config.ReplicationFactor
	if rf > len(brokers) {
		rf = len(brokers)
	}
	for p := meta.Config.Partitions; p < n; p++ {
		meta.Partitions = append(meta.Partitions, c.assignLocked(name, p, brokers, rf))
	}
	meta.Config.Partitions = n
	c.bumpEpoch()
	return meta.clone(), nil
}

// SetConfig updates retention/compaction settings (partition count and
// replication factor are managed by their dedicated operations).
func (c *Controller) SetConfig(name string, cfg TopicConfig) (*TopicMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, err := c.topicLocked(name)
	if err != nil {
		return nil, err
	}
	if cfg.Retention > 0 {
		meta.Config.Retention = cfg.Retention
	}
	meta.Config.Compact = cfg.Compact
	c.bumpEpoch()
	return meta.clone(), nil
}

// Partition returns a copy of one partition's metadata.
func (c *Controller) Partition(topic string, id int) (PartitionMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, err := c.partitionLocked(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	return p.clone(), nil
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
	var changed []PartitionMeta
	for _, name := range slices.Sorted(maps.Keys(c.topics)) {
		meta := c.topics[name]
		for i := range meta.Partitions {
			p := &meta.Partitions[i]
			if !p.HasReplica(brokerID) {
				continue
			}
			p.ISR = slices.DeleteFunc(p.ISR, func(r int) bool { return r == brokerID })
			if p.Leader == brokerID {
				if len(p.ISR) > 0 {
					p.Leader = p.ISR[0]
				} else {
					p.Leader = -1
				}
				p.LeaderEpoch++
			}
			changed = append(changed, p.clone())
		}
	}
	c.bumpEpoch()
	return changed
}

// HandleBrokerRecovery restores a broker to the ISR of every partition
// that lists it as a replica (the broker must have caught up first) and
// re-elects it leader for leaderless partitions.
func (c *Controller) HandleBrokerRecovery(brokerID int) []PartitionMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	var changed []PartitionMeta
	for _, name := range slices.Sorted(maps.Keys(c.topics)) {
		meta := c.topics[name]
		for i := range meta.Partitions {
			p := &meta.Partitions[i]
			if !p.HasReplica(brokerID) || p.InISR(brokerID) {
				continue
			}
			p.rejoin(brokerID)
			changed = append(changed, p.clone())
		}
	}
	c.bumpEpoch()
	return changed
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
	p, err := c.partitionLocked(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	if !p.HasReplica(brokerID) {
		return p.clone(), fmt.Errorf("cluster: broker %d is not a replica of %s/%d", brokerID, topic, id)
	}
	if p.InISR(brokerID) {
		return p.clone(), nil
	}
	p.rejoin(brokerID)
	c.bumpEpoch()
	return p.clone(), nil
}

// ShrinkISR removes a lagging replica from one partition's in-sync set,
// so acks=all produces stop waiting on it. The leader itself is never
// removed this way (leader loss goes through HandleBrokerFailure).
// Removing a broker not in the ISR is a no-op.
func (c *Controller) ShrinkISR(topic string, id, brokerID int) (PartitionMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.partitionLocked(topic, id)
	if err != nil {
		return PartitionMeta{}, err
	}
	if p.Leader == brokerID || !p.InISR(brokerID) {
		return p.clone(), nil
	}
	p.ISR = slices.DeleteFunc(p.ISR, func(r int) bool { return r == brokerID })
	c.bumpEpoch()
	return p.clone(), nil
}
