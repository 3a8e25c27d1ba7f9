// Package core is the public face of the Octopus reproduction: it
// assembles the event fabric (brokers + the cluster controller), the
// security stack (OAuth-style tokens, IAM keys, topic ACLs), the web
// service, the managed trigger runtime, and the SDK
// factory methods, mirroring the architecture of Figure 2.
//
// Launch assembles the fabric in-process; it does not listen. Serving
// it over the network — one wire listener per broker, followers
// replicating over the wire — is clusternet.Serve(oct.Fabric, ...)'s
// job, and remote clients dial any broker's advertised address with a
// key from User.CreateKey.
//
// A minimal end-to-end flow:
//
//	oct, _ := core.Launch(core.Config{Brokers: 2})
//	defer oct.Shutdown()
//	user, _ := oct.Register("alice@uchicago.edu", "globus")
//	topic, _ := oct.CreateTopic(user, "instrument-data", core.TopicOptions{})
//	p := topic.Producer()
//	p.SendJSON("", map[string]any{"event_type": "created", "path": "/data/x"})
//	p.Flush()
//	c := topic.Consumer(core.FromEarliest())
//	events, _ := c.Poll(100)
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ows"
	"repro/internal/trigger"
	"repro/internal/vclock"
)

// Config sizes a fabric deployment.
type Config struct {
	// Brokers is the cluster size (default 2, the MSK minimum).
	Brokers int
	// VCPUs sizes the broker instance type (default 2, kafka.m5.large
	// with its 8 GB of memory).
	VCPUs int
	// DataDir, when set, backs every broker's replica logs with durable
	// segment files under <DataDir>/broker-<id> — appends hit disk and
	// a restarted process replays them (truncating any torn tail).
	// Empty keeps the logs in memory.
	DataDir string
}

func (c *Config) fill() {
	if c.Brokers <= 0 {
		c.Brokers = 2
	}
	if c.VCPUs <= 0 {
		c.VCPUs = 2
	}
}

// brokerMemGB is every broker's memory, kafka.m5.large's 8 GB.
const brokerMemGB = 8

// Octopus is a running deployment.
type Octopus struct {
	Fabric   *broker.Fabric
	Triggers *trigger.Runtime
	Web      *ows.Server
}

// Launch assembles and starts a deployment.
func Launch(cfg Config) (*Octopus, error) {
	cfg.fill()
	f := broker.NewFabric(vclock.Real{})
	for i := 0; i < cfg.Brokers; i++ {
		info := cluster.BrokerInfo{ID: i, VCPUs: cfg.VCPUs, MemGB: brokerMemGB}
		if cfg.DataDir != "" {
			info.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("broker-%d", i))
		}
		if _, err := f.AddBroker(info); err != nil {
			return nil, err
		}
	}
	tr := trigger.NewRuntime(f)
	return &Octopus{
		Fabric:   f,
		Triggers: tr,
		Web:      ows.NewServer(f, tr),
	}, nil
}

// Shutdown stops the deployment's triggers.
func (o *Octopus) Shutdown() {
	o.Triggers.StopAll()
}

// User is an authenticated principal with a live token.
type User struct {
	Identity auth.Identity
	Token    *auth.Token
	oct      *Octopus
}

// Register creates (or looks up) an identity and logs it in, the
// Globus-Auth flow of §IV-C collapsed for in-process use.
func (o *Octopus) Register(username, provider string) (*User, error) {
	ident := o.Fabric.Auth.RegisterIdentity(username, provider)
	tok, err := o.Fabric.Auth.Login(username)
	if err != nil {
		return nil, err
	}
	return &User{Identity: ident, Token: tok, oct: o}, nil
}

// CreateKey returns the user's IAM-style fabric credentials.
func (u *User) CreateKey() (auth.Key, error) {
	return u.oct.Fabric.Auth.CreateKey(u.Identity.ID)
}

// TopicOptions configures topic provisioning.
type TopicOptions struct {
	Partitions        int
	ReplicationFactor int
	Retention         time.Duration
	Compact           bool
}

// Topic is a handle for producing and consuming.
type Topic struct {
	Name string
	oct  *Octopus
	user *User
}

// CreateTopic provisions a topic owned by the user (PUT /topic/<topic>).
func (o *Octopus) CreateTopic(u *User, name string, opts TopicOptions) (*Topic, error) {
	_, err := o.Fabric.CreateTopic(name, u.Identity.ID, cluster.TopicConfig{
		Partitions:        opts.Partitions,
		ReplicationFactor: opts.ReplicationFactor,
		Retention:         opts.Retention,
		Compact:           opts.Compact,
	})
	if err != nil {
		return nil, err
	}
	return &Topic{Name: name, oct: o, user: u}, nil
}

// OpenTopic returns a handle for an existing topic the user can access.
func (o *Octopus) OpenTopic(u *User, name string) (*Topic, error) {
	if _, err := o.Fabric.Ctl.Topic(name); err != nil {
		return nil, err
	}
	if err := o.Fabric.ACL.Check(name, u.Identity.ID, auth.PermDescribe); err != nil {
		return nil, err
	}
	return &Topic{Name: name, oct: o, user: u}, nil
}

// Grant shares the topic with another user (POST /topic/<topic>/user).
func (t *Topic) Grant(other *User, perms ...auth.Permission) error {
	meta, err := t.oct.Fabric.Ctl.Topic(t.Name)
	if err != nil {
		return err
	}
	if meta.Owner != t.user.Identity.ID {
		return fmt.Errorf("%w: only the owner may grant", auth.ErrDenied)
	}
	t.oct.Fabric.ACL.Grant(t.Name, other.Identity.ID, perms...)
	return nil
}

// Transport returns the user's in-process transport.
func (t *Topic) Transport() client.Transport {
	return client.NewDirect(t.oct.Fabric)
}

// Producer opens an SDK producer bound to the user's identity.
func (t *Topic) Producer() *client.Producer {
	return client.NewProducer(t.Transport(), t.Name, client.ProducerConfig{
		Identity: t.user.Identity.ID,
		Clock:    t.oct.Fabric.Clock,
	})
}

// ConsumerOption configures Consumer.
type ConsumerOption func(*client.ConsumerConfig)

// FromEarliest starts consumption at the earliest retained offset.
func FromEarliest() ConsumerOption {
	return func(c *client.ConsumerConfig) { c.Start = client.StartEarliest }
}

// FromLatest starts at the partition end.
func FromLatest() ConsumerOption {
	return func(c *client.ConsumerConfig) { c.Start = client.StartLatest }
}

// FromTime starts at the first event at or after ts.
func FromTime(ts time.Time) ConsumerOption {
	return func(c *client.ConsumerConfig) { c.Start = client.StartAtTime; c.StartTime = ts }
}

// InGroup makes the consumer part of a coordinated group.
func InGroup(group string) ConsumerOption {
	return func(c *client.ConsumerConfig) { c.Group = group; c.AutoCommit = true }
}

// Consumer opens an SDK consumer over every partition of the topic (or
// subscribed via group when InGroup is used).
func (t *Topic) Consumer(opts ...ConsumerOption) *client.Consumer {
	cfg := client.ConsumerConfig{Identity: t.user.Identity.ID, Clock: t.oct.Fabric.Clock}
	for _, o := range opts {
		o(&cfg)
	}
	c := client.NewConsumer(t.Transport(), cfg)
	if cfg.Group != "" {
		_ = c.Subscribe(t.Name)
		return c
	}
	if meta, err := t.oct.Fabric.Ctl.Topic(t.Name); err == nil {
		for p := 0; p < meta.Config.Partitions; p++ {
			_ = c.Assign(t.Name, p)
		}
	}
	return c
}

// TriggerOptions configures AddTrigger.
type TriggerOptions struct {
	// Pattern is an EventBridge-style filter (Listing 1); empty matches
	// all events.
	Pattern string
	// BatchSize caps events per invocation.
	BatchSize int
	// MaxConcurrency caps parallel invocations.
	MaxConcurrency int
}

// AddTrigger deploys a trigger on the topic running fn, acting on the
// user's behalf via a delegated token.
func (t *Topic) AddTrigger(id string, opts TriggerOptions, fn trigger.Action) (*trigger.Trigger, error) {
	if _, err := t.oct.Fabric.Auth.Delegate(t.user.Token.Value, auth.ScopeConsume); err != nil {
		return nil, err
	}
	cfg := trigger.Config{
		ID:             id,
		Topic:          t.Name,
		PatternJSON:    opts.Pattern,
		BatchSize:      opts.BatchSize,
		MaxConcurrency: opts.MaxConcurrency,
		EvalInterval:   50 * time.Millisecond,
		OnBehalfOf:     t.user.Identity.ID,
	}
	return t.oct.Triggers.DeployFunc(cfg, fn)
}
