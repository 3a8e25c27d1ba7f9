package clusternet

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/replication"
	"repro/internal/wire"
)

// replicaCredentials provisions (idempotently) the auth key the
// replication managers dial with, as broker.ReplicationIdentity — the
// one authenticated principal the fabric admits replica ops from.
// Anonymous clusters skip it.
func (c *Cluster) replicaCredentials() (wire.Options, error) {
	if c.opts.AllowAnonymous {
		return wire.Options{Anonymous: true}, nil
	}
	ident := c.Fabric.Auth.RegisterIdentity(broker.ReplicationIdentity, "cluster")
	key, err := c.Fabric.Auth.CreateKey(ident.ID)
	if err != nil {
		return wire.Options{}, fmt.Errorf("clusternet: replication credentials: %w", err)
	}
	return wire.Options{AccessKeyID: key.AccessKeyID, Secret: key.Secret}, nil
}

// startManager dials the broker's own listener (the in-process
// loopback a real broker's replication thread would use) and starts
// its follower fetch loops, which pull through the routed wire.Client
// over OpReplicaFetch/OpReplicaAck round trips. Callers must have the
// broker's listener bound already.
func (c *Cluster) startManager(id int) error {
	c.mu.Lock()
	bound := c.bound[id]
	running := c.managers[id] != nil
	c.mu.Unlock()
	if running {
		return nil
	}
	if bound == "" {
		return fmt.Errorf("clusternet: broker %d has no bound address", id)
	}
	wopts, err := c.replicaCredentials()
	if err != nil {
		return err
	}
	wc, err := wire.DialOptions(bound, wopts)
	if err != nil {
		return fmt.Errorf("clusternet: broker %d replication dial: %w", id, err)
	}
	m := replication.NewManager(c.Fabric, id, wc, c.opts.ReplicationConfig)
	m.Start()
	c.mu.Lock()
	c.managers[id] = m
	c.mclients[id] = wc
	c.mu.Unlock()
	return nil
}

// stopManager halts a broker's fetch loops and closes their client.
// With kill=true the ordering mimics the process dying: the client's
// connections drop before the loops are reaped.
func (c *Cluster) stopManager(id int, kill bool) {
	c.mu.Lock()
	m := c.managers[id]
	wc := c.mclients[id]
	delete(c.managers, id)
	delete(c.mclients, id)
	c.mu.Unlock()
	if kill && wc != nil {
		wc.Close()
	}
	if m != nil {
		m.Stop()
	}
	if !kill && wc != nil {
		wc.Close()
	}
}

// HardKillBroker is kill -9 for one broker: its listener and every
// connection (serving and replicating) drop on the spot, its
// in-memory state is gone, and only then does the control plane
// notice the death and re-elect leaders. Unlike StopBroker there is
// no graceful handoff — the acked data that survives is whatever
// replication put on other brokers plus what the broker's own DataDir
// segments retained. Bring it back with RecoverBroker.
func (c *Cluster) HardKillBroker(id int) error {
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
	c.stopManager(id, true)
	return c.Fabric.CrashBroker(id)
}

// RecoverBroker brings a hard-killed broker back the durable way: the
// listener rebinds its original address, local segment files replay
// (truncating any torn tail), and the broker re-registers. Its
// replication manager restarts and catches every hosted replica up
// over OpReplicaFetch — truncating to the current leader epoch's log
// where the dead broker had diverged — and the tracker expands it
// back into each ISR as it reaches the leader's log end.
func (c *Cluster) RecoverBroker(id int) error {
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
	// re-admits the broker (epoch bump), clients may route to it.
	srv := wire.NewBrokerServer(c.Fabric, id)
	srv.AllowAnonymous = c.opts.AllowAnonymous
	if _, err := srv.Listen(bound); err != nil {
		return fmt.Errorf("clusternet: broker %d rebind %s: %w", id, bound, err)
	}
	if err := c.Fabric.RecoverBroker(id); err != nil {
		srv.Close()
		return err
	}
	c.mu.Lock()
	c.servers[id] = srv
	c.mu.Unlock()
	return c.startManager(id)
}
