// Metadata-driven request routing for multi-listener clusters.
//
// The pre-cluster client hashed every topic-partition over the
// connection pool of one address. Against a clusternet fabric
// (internal/clusternet) that single address is just one broker, and
// data-plane requests for partitions led elsewhere come back as
// ErrNotLeader. The router turns the client into a leader-direct one:
//
//   - Bootstrap: at dial time the client fetches OpMetadata once from
//     the seed and builds a routing table — broker id → advertised
//     address, topic → per-partition leader ids — keyed by the
//     controller's metadata epoch.
//   - Steady state: every data-plane request resolves its partition's
//     leader address and rides that broker's own connection pool; the
//     seed keeps carrying control-plane ops and anything the table
//     cannot place. Pre-partitioned produce (Client.Produce with
//     partition < 0) buckets events client-side with the fabric's own
//     partitioner, so no broker ever sees an event it does not lead.
//   - Invalidation: every broker pushes the fresh document on each
//     controller epoch bump, so the table usually moves before any
//     request misses. A push can still lose the race with a request:
//     an ErrNotLeader response or a broker connection failure triggers
//     one metadata re-fetch (serialized; the epoch rejects stale
//     documents) and a single retry against the freshly resolved
//     leader. Leader elections bump the controller epoch, so the
//     refreshed document always reflects the new leadership.
//
// Until a metadata fetch succeeds (a failed bootstrap) the router stays
// disabled and the client slot-hashes over its seed address.
package wire

import (
	"errors"
	"sync"
	"time"

	"repro/internal/broker"
)

// clusterRouter is the client's routing table, nil-state disabled.
type clusterRouter struct {
	mu      sync.Mutex
	enabled bool
	epoch   int64
	brokers map[int]BrokerMeta
	// topics maps topic → leader broker id per partition.
	topics map[string][]int
	// unknown negatively caches topics confirmed absent at an epoch,
	// so produce retries against a deleted or misspelled topic fail
	// fast instead of hammering the cluster with a full metadata fetch
	// per attempt. Any epoch bump (topic creation included) invalidates.
	unknown map[string]int64

	// controlAddr is the last address that successfully served a
	// control-plane call ("" = the seed). Remembering it keeps a dead
	// seed from being re-dialed — and its dial timeout re-paid — on
	// every heartbeat and commit for the client's lifetime.
	controlAddr string

	// fetchMu serializes metadata fetches so a burst of failing
	// requests triggers one refresh, not a stampede.
	fetchMu sync.Mutex
}

// RouterEnabled reports whether the client routes data-plane requests
// to partition leaders via cluster metadata (false = single-address
// slot hashing).
func (c *Client) RouterEnabled() bool {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return c.rt.enabled
}

// MetadataEpoch reports the epoch of the routing table the client
// currently holds (0 before any metadata was adopted). Failover tests
// poll it to observe a pushed document landing.
func (c *Client) MetadataEpoch() int64 {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return c.rt.epoch
}

// dataAddr resolves the broker address a data-plane request for the
// partition should dial: the leader's advertised address when the
// routing table knows it and lists the broker as up, else the seed. A
// topic missing from the table (created after the last refresh) costs
// one metadata fetch through produceParts' refresh-once path and
// negative cache, not a request to the seed answered by ErrNotLeader.
func (c *Client) dataAddr(topic string, partition int) string {
	addr, known := c.leaderAddr(topic, partition)
	if !known {
		if _, ok := c.produceParts(topic); ok {
			addr, _ = c.leaderAddr(topic, partition)
		}
	}
	return addr
}

// leaderAddr is dataAddr from the table alone; known is false when the
// routed table has no entry for the topic.
func (c *Client) leaderAddr(topic string, partition int) (addr string, known bool) {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	if !c.rt.enabled || partition < 0 {
		return c.seed, true
	}
	leaders, ok := c.rt.topics[topic]
	if !ok {
		return c.seed, false
	}
	if partition >= len(leaders) {
		return c.seed, true
	}
	id := leaders[partition]
	if id < 0 {
		return c.seed, true
	}
	br, ok := c.rt.brokers[id]
	if !ok || !br.Up || br.Addr == "" {
		return c.seed, true
	}
	return br.Addr, true
}

// tableLeader reports the partition's leader in the routing table, -1
// when the table has none.
func (c *Client) tableLeader(topic string, partition int) int {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	if leaders := c.rt.topics[topic]; partition >= 0 && partition < len(leaders) {
		return leaders[partition]
	}
	return -1
}

// partitionCount reports the routed partition count for a topic.
func (c *Client) partitionCount(topic string) (int, bool) {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	if !c.rt.enabled {
		return 0, false
	}
	leaders, ok := c.rt.topics[topic]
	return len(leaders), ok
}

// maxUnknownTopics bounds the negative cache so a caller cycling
// through fabricated topic names cannot grow it without limit.
const maxUnknownTopics = 1024

// produceParts resolves a topic's partition count for client-side
// batch partitioning, fetching metadata once if the topic is not yet
// in the table (it may have been created after the last refresh). A
// topic still absent after a refresh is remembered as unknown for the
// current epoch, so retries fail fast until the metadata actually
// changes.
func (c *Client) produceParts(topic string) (int, bool) {
	if parts, ok := c.partitionCount(topic); ok {
		return parts, true
	}
	c.rt.mu.Lock()
	e, cached := c.rt.unknown[topic]
	stillUnknown := cached && e == c.rt.epoch
	c.rt.mu.Unlock()
	if stillUnknown {
		return 0, false
	}
	if c.refreshMetadata() != nil {
		return 0, false
	}
	if parts, ok := c.partitionCount(topic); ok {
		return parts, true
	}
	c.rt.mu.Lock()
	if c.rt.unknown == nil {
		c.rt.unknown = make(map[string]int64)
	}
	if len(c.rt.unknown) < maxUnknownTopics {
		c.rt.unknown[topic] = c.rt.epoch
	}
	c.rt.mu.Unlock()
	return 0, false
}

// upBrokerAddrs returns the advertised addresses of brokers the table
// lists as up (excluding empty addresses).
func (c *Client) upBrokerAddrs() []string {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	var addrs []string
	for _, br := range c.rt.brokers {
		if br.Up && br.Addr != "" {
			addrs = append(addrs, br.Addr)
		}
	}
	return addrs
}

// errEndpointRetired fails connections to addresses the adopted
// metadata no longer names. It is a transport-class error: in-flight
// callers reroute through the refreshed table, exactly as on a broken
// connection.
var errEndpointRetired = errors.New("wire: endpoint no longer routed")

// adoptMetadata replaces the routing table when the document is at
// least as new as the current one, and prunes connection pools for
// addresses the cluster no longer advertises — across rolling restarts
// with changing addresses, a long-lived client must not accumulate
// live connections to brokers nothing routes to anymore.
func (c *Client) adoptMetadata(resp *MetadataResp) {
	c.rt.mu.Lock()
	if c.rt.enabled && resp.Epoch < c.rt.epoch {
		c.rt.mu.Unlock()
		return // stale document from a lagging broker
	}
	if resp.Epoch != c.rt.epoch {
		c.rt.unknown = nil // the cluster changed; absent topics may exist now
	}
	c.rt.enabled = true
	c.rt.epoch = resp.Epoch
	c.rt.brokers = make(map[int]BrokerMeta, len(resp.Brokers))
	named := map[string]bool{c.seed: true}
	for _, br := range resp.Brokers {
		c.rt.brokers[br.ID] = br
		if br.Addr != "" {
			named[br.Addr] = true
		}
	}
	c.rt.topics = make(map[string][]int, len(resp.Topics))
	for _, t := range resp.Topics {
		leaders := make([]int, len(t.Partitions))
		for i := range t.Partitions {
			leaders[i] = t.Partitions[i].Leader
		}
		c.rt.topics[t.Name] = leaders
	}
	if c.rt.controlAddr != "" && !named[c.rt.controlAddr] {
		c.rt.controlAddr = ""
	}
	c.rt.mu.Unlock()

	c.mu.Lock()
	var retire []*wireConn
	for addr, ep := range c.eps {
		if named[addr] {
			continue
		}
		for i, wc := range ep.slots {
			if wc != nil {
				retire = append(retire, wc)
				ep.slots[i] = nil
			}
		}
		delete(c.eps, addr)
	}
	c.mu.Unlock()
	for _, wc := range retire {
		wc.fail(errEndpointRetired)
	}

	// Session hygiene: a multiplexed-session sub whose partition the new
	// table routes elsewhere would keep draining the old connection's
	// shared window (its server may even keep pushing), starving the
	// subs that still belong there. Remove such subs now — consumers
	// re-subscribe on the new leader's connection on their next fetch,
	// which with pushed metadata happens before any request fails.
	type staleSub struct {
		sess *clientSession
		sub  *clientSub
	}
	var stale []staleSub
	c.mu.Lock()
	for addr, ep := range c.eps {
		for _, wc := range ep.slots {
			if wc == nil {
				continue
			}
			wc.sessMu.Lock()
			sess := wc.session
			wc.sessMu.Unlock()
			if sess == nil {
				continue
			}
			sess.mu.Lock()
			for _, sub := range sess.subsByTP {
				if a, _ := c.leaderAddr(sub.topic, sub.partition); a != addr {
					stale = append(stale, staleSub{sess, sub})
				}
			}
			sess.mu.Unlock()
		}
	}
	c.mu.Unlock()
	for _, s := range stale {
		s.sess.removeSub(s.sub, true)
	}
}

// refreshMetadata fetches a fresh cluster metadata document from the
// first answering broker (seed first, then every broker the current
// table lists as up) and adopts it. Serialized: concurrent failing
// requests share one refresh.
func (c *Client) refreshMetadata() error {
	c.rt.fetchMu.Lock()
	defer c.rt.fetchMu.Unlock()
	candidates := append([]string{c.seed}, c.upBrokerAddrs()...)
	var lastErr error
	tried := make(map[string]bool, len(candidates))
	for _, addr := range candidates {
		if tried[addr] {
			continue
		}
		tried[addr] = true
		var resp MetadataResp
		if _, err := c.callAt(addr, 0, &MetadataReq{}, &resp, nil, nil); err != nil {
			lastErr = err
			continue
		}
		c.adoptMetadata(&resp)
		return nil
	}
	return lastErr
}

// ClusterMetadata fetches the cluster metadata document — epoch,
// brokers (address and liveness) and the requested topics'
// per-partition leadership (every topic when none is named).
func (c *Client) ClusterMetadata(topics ...string) (*MetadataResp, error) {
	req := MetadataReq{Topics: topics}
	var resp MetadataResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// rerouteable classifies an error as a routing failure worth a
// metadata refresh and one retry: the server said the partition lives
// elsewhere (ErrNotLeader, or a partition-count mismatch after
// growth), or the broker connection itself failed. Server-reported
// domain errors — bad offsets, ACL denials, unknown topics — are
// deterministic answers, not routing failures; an explicit Close is
// final.
func rerouteable(err error) bool {
	if err == nil || errors.Is(err, ErrConnClosed) {
		return false
	}
	if errors.Is(err, ErrNoLeader) {
		// No ISR member survives: there is no better broker to route to,
		// so failing over is pointless. dataCall instead waits out a
		// re-election with bounded backoff. Checked before ErrNotLeader,
		// which it wraps.
		return false
	}
	if errors.Is(err, ErrNotLeader) || errors.Is(err, broker.ErrNoPartition) {
		return true
	}
	for _, e := range errTable {
		if errors.Is(err, e.sentinel) {
			return false
		}
	}
	if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, errShortMsg) {
		return false
	}
	return true // dial failure, broken connection, I/O timeout
}

// No-leader backoff: a partition whose entire ISR is down has no
// server to route to, but leader elections are fast — the controller
// re-elects the moment a surviving replica rejoins. The router waits
// one out with a short bounded backoff instead of failing the first
// call, and gives up (returning ErrNoLeader) when none happens.
const (
	noLeaderRetries = 4
	noLeaderBackoff = 25 * time.Millisecond
)

// dataCall submits a partition-routed request through the router:
// resolve the leader address, call, and on a routing failure re-fetch
// metadata and retry once against the freshly resolved leader. A
// leaderless partition (ErrNoLeader) is instead retried in place with
// bounded backoff, waiting out a re-election.
func (c *Client) dataCall(topic string, partition int, req ReqMsg, resp Msg, payload, arena []byte) (*call, error) {
	cl, err := c.dataCallOnce(topic, partition, req, resp, payload, arena)
	backoff := noLeaderBackoff
	for attempt := 0; attempt < noLeaderRetries && errors.Is(err, ErrNoLeader); attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if c.RouterEnabled() {
			_ = c.refreshMetadata()
		}
		if cl != nil && cl.arena != nil {
			arena = cl.arena
		}
		cl, err = c.dataCallOnce(topic, partition, req, resp, payload, arena)
	}
	return cl, err
}

func (c *Client) dataCallOnce(topic string, partition int, req ReqMsg, resp Msg, payload, arena []byte) (*call, error) {
	cl, err := c.callAt(c.dataAddr(topic, partition), c.slotFor(topic, partition), req, resp, payload, arena)
	if err == nil || !c.RouterEnabled() || !rerouteable(err) {
		return cl, err
	}
	if rerr := c.refreshMetadata(); rerr != nil {
		return cl, err
	}
	if cl != nil && cl.arena != nil {
		arena = cl.arena
	}
	return c.callAt(c.dataAddr(topic, partition), c.slotFor(topic, partition), req, resp, payload, arena)
}

// controlCall submits a control-plane request to the last known good
// control endpoint (the seed, initially), falling over to every broker
// the routing table lists as up when it is unreachable — group
// coordination and metadata are served identically by every broker.
// The endpoint that answers is remembered, so a dead seed costs one
// failed dial total, not one per heartbeat.
func (c *Client) controlCall(req ReqMsg, resp Msg) (*call, error) {
	c.rt.mu.Lock()
	first := c.rt.controlAddr
	c.rt.mu.Unlock()
	if first == "" {
		first = c.seed
	}
	cl, err := c.callAt(first, 0, req, resp, nil, nil)
	if err == nil || !c.RouterEnabled() || !rerouteable(err) {
		return cl, err
	}
	candidates := append([]string{c.seed}, c.upBrokerAddrs()...)
	for _, addr := range candidates {
		if addr == first {
			continue
		}
		cl2, err2 := c.callAt(addr, 0, req, resp, nil, nil)
		if err2 == nil || !rerouteable(err2) {
			if err2 == nil {
				c.rt.mu.Lock()
				c.rt.controlAddr = addr
				c.rt.mu.Unlock()
			}
			return cl2, err2
		}
	}
	return cl, err
}
