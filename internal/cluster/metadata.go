// Package cluster implements the control plane of the Octopus event
// fabric: broker membership, topic metadata, partition assignment,
// leader election and in-sync-replica (ISR) tracking. The Controller
// plays the role the paper's MSK control plane plus ZooKeeper play
// (§IV-A, §IV-F): it is the source of truth for which brokers are live
// and where every partition's replicas, leader and ISR are. It
// publishes that state as one immutable Snapshot per change, which
// readers load without a lock; the topic ACLs live beside it in
// auth.ACLStore.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Errors returned by the controller.
var (
	// ErrTopicExists reports topic re-creation with conflicting config.
	ErrTopicExists = errors.New("cluster: topic already exists")
	// ErrNoTopic reports an operation on an unknown topic.
	ErrNoTopic = errors.New("cluster: unknown topic")
	// ErrNoBrokers reports topic creation with no live brokers.
	ErrNoBrokers = errors.New("cluster: no live brokers")
	// ErrBadConfig reports an invalid topic configuration.
	ErrBadConfig = errors.New("cluster: invalid topic config")
	// ErrShrinkPartitions reports an attempt to reduce partition count.
	ErrShrinkPartitions = errors.New("cluster: cannot reduce partition count")
)

// TopicConfig is the client-settable topic configuration exposed through
// the OWS POST /topic/<topic> route.
type TopicConfig struct {
	// Partitions is the number of partitions (default 2, as in the
	// paper's baseline experiments).
	Partitions int `json:"partitions"`
	// ReplicationFactor is the number of replicas per partition
	// (default 2).
	ReplicationFactor int `json:"replication_factor"`
	// Retention is how long events are kept (default 7 days, §IV-F).
	Retention time.Duration `json:"retention"`
	// Compact enables key compaction instead of pure time retention.
	Compact bool `json:"compact"`
}

// DefaultTopicConfig returns the paper's defaults.
func DefaultTopicConfig() TopicConfig {
	return TopicConfig{Partitions: 2, ReplicationFactor: 2, Retention: 7 * 24 * time.Hour}
}

func (c *TopicConfig) normalize() error {
	if c.Partitions == 0 {
		c.Partitions = 2
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.Retention == 0 {
		c.Retention = 7 * 24 * time.Hour
	}
	if c.Partitions < 0 || c.ReplicationFactor < 0 {
		return fmt.Errorf("%w: partitions=%d rf=%d", ErrBadConfig, c.Partitions, c.ReplicationFactor)
	}
	return nil
}

// PartitionMeta describes one partition's placement.
type PartitionMeta struct {
	// Topic and ID identify the partition.
	Topic string `json:"topic"`
	ID    int    `json:"id"`
	// Leader is the broker id serving produce/fetch for the partition.
	Leader int `json:"leader"`
	// LeaderEpoch counts leader elections for the partition, starting at
	// 0 with the initial assignment and bumped on every leader change
	// (including to leaderless). Replication fetches carry it so a
	// deposed leader rejects stale followers and a fenced follower
	// truncates to the new leader's log before re-fetching.
	LeaderEpoch int64 `json:"leader_epoch"`
	// Replicas is the full replica set (leader included).
	Replicas []int `json:"replicas"`
	// ISR is the in-sync subset of Replicas.
	ISR []int `json:"isr"`
}

// HasReplica reports whether broker id hosts a replica.
func (p *PartitionMeta) HasReplica(id int) bool {
	for _, r := range p.Replicas {
		if r == id {
			return true
		}
	}
	return false
}

// InISR reports whether broker id is in the in-sync set.
func (p *PartitionMeta) InISR(id int) bool {
	for _, r := range p.ISR {
		if r == id {
			return true
		}
	}
	return false
}

// clone returns a deep copy of the partition's metadata.
func (p *PartitionMeta) clone() PartitionMeta {
	c := *p
	c.Replicas = slices.Clone(p.Replicas)
	c.ISR = slices.Clone(p.ISR)
	return c
}

// rejoin adds broker id back to the ISR and elects it leader of a
// leaderless partition (bumping the leader epoch).
func (p *PartitionMeta) rejoin(id int) {
	p.ISR = append(p.ISR, id)
	slices.Sort(p.ISR)
	if p.Leader == -1 {
		p.Leader = id
		p.LeaderEpoch++
	}
}

// TopicMeta is the full metadata for a topic.
type TopicMeta struct {
	Name       string          `json:"name"`
	Config     TopicConfig     `json:"config"`
	Partitions []PartitionMeta `json:"partitions"`
	// Owner is the identity that provisioned the topic.
	Owner string `json:"owner"`
	// CreatedAt is the provisioning time.
	CreatedAt time.Time `json:"created_at"`
}

// clone returns a deep copy of the topic's metadata.
func (t *TopicMeta) clone() *TopicMeta {
	c := *t
	c.Partitions = slices.Clone(t.Partitions)
	for i := range c.Partitions {
		c.Partitions[i] = c.Partitions[i].clone()
	}
	return &c
}

// BrokerInfo describes a registered broker.
type BrokerInfo struct {
	ID int `json:"id"`
	// Addr is the broker's listen address (empty for in-process nodes).
	Addr string `json:"addr"`
	// VCPUs and MemGB describe the instance type, used by the capacity
	// model (kafka.m5.large = 2 vCPU / 8 GB, m5.xlarge = 4 / 16).
	VCPUs int `json:"vcpus"`
	MemGB int `json:"mem_gb"`
	// DataDir, when set, backs the broker's replica logs with segment
	// files under this directory, so a crashed broker replays them on
	// restart instead of losing its partitions.
	DataDir string `json:"data_dir,omitempty"`
}
