// Package clusternet is the cluster serving subsystem: it exposes a
// fabric as the paper's cluster of brokers (§IV), each with its own
// wire listener restricted to the partitions it leads, instead of one
// listener fronting everything.
//
// Serve binds one wire.Server per broker node to the broker's
// configured (or an ephemeral) address, publishes the bound address as
// the broker's advertised address in the controller registry — which
// bumps the metadata epoch, so OpMetadata responses immediately route
// clients there — and scopes each server to its broker
// (wire.Server.LocalBroker): a data-plane request for a partition the
// broker does not lead is refused with ErrNotLeader carrying the
// current leader's id, never silently served from shared in-process
// state.
//
// Failure injection mirrors the fabric's: StopBroker re-elects leaders
// through the controller and then tears the broker's listener down, so
// connected clients observe the connection failure only after fresh
// metadata already names the new leaders — one metadata round trip
// re-routes them. RestartBroker rebinds the same address, catches
// replicas up, and rejoins ISRs.
package clusternet

import (
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/replication"
	"repro/internal/wire"
)

// Options configures a cluster's listeners.
type Options struct {
	// AllowAnonymous lets connections skip OpAuth (tests, single-user
	// deployments).
	AllowAnonymous bool
	// Addrs maps broker id to its listen address; brokers absent from
	// the map bind an ephemeral 127.0.0.1 port.
	Addrs map[int]string
	// Advertise, when set, rewrites a broker's bound address before it
	// is registered as the advertised address — how benchmarks place an
	// emulated WAN link (testbed.DelayProxy) in front of every broker
	// while the listeners stay on loopback.
	Advertise func(brokerID int, bound string) (string, error)
	// Replication attaches the inter-broker replication subsystem: a
	// fabric-wide tracker (ISR membership, high watermarks, acks=all
	// gating) plus one manager per broker whose fetch loops pull from
	// partition leaders over wire-v2 OpReplicaFetch. Without it the
	// fabric keeps its single-process synchronous replication.
	Replication bool
	// ReplicationConfig tunes the subsystem (zero value = defaults).
	ReplicationConfig replication.Config
}

// Cluster is a set of per-broker wire servers over one fabric.
type Cluster struct {
	Fabric *broker.Fabric
	opts   Options

	mu      sync.Mutex
	servers map[int]*wire.Server
	// bound is each broker's listen address, kept so RestartBroker can
	// rebind the exact address its advertised identity points at.
	bound map[int]string
	// advertised is each broker's registered address.
	advertised map[int]string
	// retired holds servers taken out of service so Misroutes stays
	// monotonic across stop/restart cycles: a server moves from
	// servers to retired under one lock, so no counter is ever
	// momentarily in neither.
	retired []*wire.Server

	// Replication subsystem state (Options.Replication).
	replicated bool
	tracker    *replication.Tracker
	managers   map[int]*replication.Manager
	mclients   map[int]*wire.Client
}

// Tracker returns the attached replication tracker, nil when the
// cluster serves without Options.Replication.
func (c *Cluster) Tracker() *replication.Tracker { return c.tracker }

// Serve starts one scoped wire server per broker node of the fabric
// and publishes each bound address as the broker's advertised address.
func Serve(f *broker.Fabric, opts Options) (*Cluster, error) {
	c := &Cluster{
		Fabric:     f,
		opts:       opts,
		servers:    make(map[int]*wire.Server),
		bound:      make(map[int]string),
		advertised: make(map[int]string),
		managers:   make(map[int]*replication.Manager),
		mclients:   make(map[int]*wire.Client),
	}
	if opts.Replication {
		c.replicated = true
		c.tracker = replication.NewTracker(f, opts.ReplicationConfig)
		f.SetReplicator(c.tracker)
	}
	for _, id := range f.NodeIDs() {
		addr := opts.Addrs[id]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		if err := c.startBroker(id, addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	if c.replicated {
		// Managers start after every listener is up: a fetch loop's
		// first metadata round trip must already see each leader's
		// advertised address.
		for _, id := range f.NodeIDs() {
			if err := c.startManager(id); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// startBroker binds and registers one broker's listener.
func (c *Cluster) startBroker(id int, addr string) error {
	srv := wire.NewBrokerServer(c.Fabric, id)
	srv.AllowAnonymous = c.opts.AllowAnonymous
	bound, err := srv.Listen(addr)
	if err != nil {
		return fmt.Errorf("clusternet: broker %d listen %s: %w", id, addr, err)
	}
	adv := bound
	if c.opts.Advertise != nil {
		if adv, err = c.opts.Advertise(id, bound); err != nil {
			srv.Close()
			return fmt.Errorf("clusternet: broker %d advertise: %w", id, err)
		}
	}
	n, ok := c.Fabric.Node(id)
	if !ok {
		srv.Close()
		return fmt.Errorf("clusternet: unknown broker %d", id)
	}
	n.SetAddr(adv)
	if err := c.Fabric.Ctl.SetBrokerAddr(id, adv); err != nil {
		srv.Close()
		return err
	}
	c.mu.Lock()
	c.servers[id] = srv
	c.bound[id] = bound
	c.advertised[id] = adv
	c.mu.Unlock()
	return nil
}

// Server returns a broker's running wire server, nil when the broker
// is stopped or unknown — how a metrics endpoint reaches each
// listener's registry without racing stop/restart cycles.
func (c *Cluster) Server(id int) *wire.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[id]
}

// Addr returns a broker's advertised address ("" for unknown ids) —
// any of them works as a client seed.
func (c *Cluster) Addr(id int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advertised[id]
}

// Addrs returns every broker's advertised address, ordered by broker
// id.
func (c *Cluster) Addrs() []string {
	var addrs []string
	for _, id := range c.Fabric.NodeIDs() {
		if a := c.Addr(id); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Misroutes sums every broker server's misroute count (data-plane
// requests refused with ErrNotLeader), including servers since
// stopped. A leader-direct client fleet holds it at zero in steady
// state.
func (c *Cluster) Misroutes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, srv := range c.retired {
		total += srv.Misroutes()
	}
	for _, srv := range c.servers {
		total += srv.Misroutes()
	}
	return total
}

// StopBroker fails one broker: the controller re-elects leaders for
// everything it led (bumping the metadata epoch), then its listener
// and connections are torn down — in that order, so by the time a
// client sees its connection die, a metadata fetch already routes
// around the dead broker.
func (c *Cluster) StopBroker(id int) error {
	if err := c.Fabric.StopBroker(id); err != nil {
		return err
	}
	c.mu.Lock()
	srv := c.servers[id]
	delete(c.servers, id)
	if srv != nil {
		c.retired = append(c.retired, srv)
	}
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	c.stopManager(id, false)
	return nil
}

// DrainBroker gracefully retires a broker from leadership without
// killing it: the controller re-elects leaders for everything it led
// (first surviving ISR member) and bumps the metadata epoch, while the
// broker's listener, connections, and replica logs all stay up. This is
// the planned-maintenance half of failure injection — clients re-route
// on the pushed epoch before any request fails; one whose request
// loses the race with the push gets ErrNotLeader from the drained
// broker and re-fetches metadata.
func (c *Cluster) DrainBroker(id int) error {
	if _, ok := c.Fabric.Node(id); !ok {
		return fmt.Errorf("clusternet: unknown broker %d", id)
	}
	c.Fabric.Ctl.HandleBrokerFailure(id)
	return nil
}

// RestartBroker brings a stopped broker back: the listener rebinds the
// broker's original address, replicas catch up from current leaders,
// and the broker re-registers and rejoins ISRs (bumping the epoch, so
// clients re-learn it).
func (c *Cluster) RestartBroker(id int) error {
	c.mu.Lock()
	bound, ok := c.bound[id]
	running := c.servers[id] != nil
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("clusternet: unknown broker %d", id)
	}
	if running {
		return nil
	}
	// Listener first, recovery second: the instant the controller
	// re-admits the broker (epoch bump), clients may route to it, so
	// its address must already answer.
	srv := wire.NewBrokerServer(c.Fabric, id)
	srv.AllowAnonymous = c.opts.AllowAnonymous
	if _, err := srv.Listen(bound); err != nil {
		return fmt.Errorf("clusternet: broker %d rebind %s: %w", id, bound, err)
	}
	if err := c.Fabric.RestartBroker(id); err != nil {
		srv.Close()
		return err
	}
	c.mu.Lock()
	c.servers[id] = srv
	c.mu.Unlock()
	if c.replicated {
		return c.startManager(id)
	}
	return nil
}

// Close tears every broker listener down. Misroute counts survive
// (closed servers retire, not vanish), so a post-Close Misroutes probe
// still reports the full run.
func (c *Cluster) Close() {
	c.mu.Lock()
	ids := make([]int, 0, len(c.managers))
	for id := range c.managers {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.stopManager(id, false)
	}
	c.mu.Lock()
	servers := c.servers
	c.servers = make(map[int]*wire.Server)
	for _, srv := range servers {
		c.retired = append(c.retired, srv)
	}
	c.mu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
	if c.replicated {
		c.Fabric.SetReplicator(nil)
	}
}
