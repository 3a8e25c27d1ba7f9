package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// ErrConnClosed reports a request that failed because Close was called.
// Close completes every pending correlation entry with it, so callers
// blocked on in-flight requests return promptly instead of hanging on a
// connection that will never deliver. It is distinct from transport
// errors: the client never reconnects after an explicit Close.
var ErrConnClosed = errors.New("wire: client closed")

// Options configures DialOptions.
type Options struct {
	// AccessKeyID/Secret authenticate the connection; ignored when
	// Anonymous is set.
	AccessKeyID string
	Secret      string
	// Anonymous connects without credentials (servers with
	// AllowAnonymous only).
	Anonymous bool
	// PoolSize is the number of TCP connections the client spreads load
	// over (default 2). Requests for the same topic-partition always use
	// the same connection, preserving per-partition ordering; requests
	// for different partitions pipeline on independent connections.
	PoolSize int
	// StreamWindowBytes is the fetch session's shared byte window: the
	// server stops pushing once this many un-granted bytes are
	// outstanding, bounding a stalled reader's server-side buffering.
	// Zero asks for the server default (1 MiB); larger values are
	// clamped to the server's cap.
	StreamWindowBytes int
}

func (o *Options) fill() {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.StreamWindowBytes > maxSessionWindow {
		// The server grants at most its own cap: clamp so the option
		// holds the window actually in force.
		o.StreamWindowBytes = maxSessionWindow
	}
}

// Client is a client.Transport over the wire protocol: SDK producers
// and consumers built on it run against a remote fabric unchanged. Its
// methods are typed per operation, and each call is one binary v2
// header.
//
// The transport is pipelined: each request carries a correlation ID, a
// writer goroutine streams frames onto the connection (coalescing
// queued frames into one write), and a reader goroutine dispatches
// responses to their waiting callers by correlation ID. Many requests
// from many goroutines are therefore in flight at once. On top of
// that, the client keeps a small connection pool per broker endpoint
// with per-partition affinity: requests for the same topic-partition
// always share one connection (preserving ordering), while other
// partitions proceed on their own connections.
//
// The client is a metadata-driven router (router.go): at dial time it
// learns every broker's advertised address and each partition's leader
// from OpMetadata, dials partition leaders directly, and on
// ErrNotLeader or a broker connection failure re-fetches metadata and
// re-routes. Until a metadata fetch succeeds every request goes to the
// seed address — the single-listener behavior.
type Client struct {
	// seed is the bootstrap address: the one the caller dialed, which
	// also carries control-plane ops and every request the router
	// cannot place.
	seed string
	opts Options

	mu sync.Mutex
	// eps are the per-address connection pools, created lazily as the
	// router resolves leaders. Single-listener clients only ever hold
	// the seed entry.
	eps    map[string]*endpoint
	closed bool

	// rt is the cluster routing table (router.go).
	rt clusterRouter
	// prodRR round-robins unkeyed events across partitions when the
	// client pre-partitions batches for leader-direct produce.
	prodRR atomic.Uint64
}

// endpoint is one broker address's connection pool.
type endpoint struct {
	addr string
	// slots are the pool's connections, dialed lazily; the seed's
	// slot 0 carries control-plane ops and is established at Dial time
	// so credential errors surface immediately.
	slots []*wireConn
	// slotMu serializes (re)dials per slot, so the dial + handshake of
	// one connection never blocks requests riding other, healthy pool
	// connections (c.mu is held only for the map-in/map-out).
	slotMu []sync.Mutex
}

// call is one in-flight request: a correlation entry plus the caller's
// completion channel.
type call struct {
	// op is the expected v2 response op (the request's op byte).
	op uint8
	// req is the typed request the writer encodes.
	req     ReqMsg
	corr    uint64
	payload []byte
	// arena, when non-nil, is the caller's receive buffer: the reader
	// goroutine reads the response payload into it (growing as needed),
	// which is what makes the consumer's fetch session reuse work over
	// the wire.
	arena []byte
	// oneway marks a request with no response (session credit grants,
	// sub removals and closes): the writer completes it right after its
	// bytes leave, without registering a pending correlation entry.
	oneway bool
	// resp is the typed response target; nil discards the body.
	resp Msg
	data []byte
	// srvErr is a server-reported error, reconstructed as its domain
	// sentinel; err is a transport or codec failure.
	srvErr error
	err    error
	done   chan struct{}
}

// wireConn is one TCP connection with its pipelining state. A failed
// wireConn is never revived; reconnection replaces it wholesale, and
// every pending or queued call on the failed connection is completed
// with the connection's error (the fan-out the SDK retry loop needs).
type wireConn struct {
	conn net.Conn
	// rd buffers reads: pipelined responses arrive many frames per TCP
	// segment, and the frame format needs several small reads per frame.
	// Only the reader goroutine touches it.
	rd *bufio.Reader
	// hdrBuf is the reader's reusable header scratch buffer.
	hdrBuf []byte

	mu   sync.Mutex
	cond *sync.Cond // signaled on queue push and on failure
	// queue holds calls accepted but not yet written; the writer drains
	// it in FIFO order. Unbounded: depth is naturally limited by the
	// number of callers blocked awaiting responses.
	queue []*call
	// pending holds written calls awaiting responses, by correlation ID.
	// A call is registered here by the writer immediately before its
	// frame hits the connection, so entries always refer to requests the
	// server may answer.
	pending  map[uint64]*call
	nextCorr uint64
	err      error // sticky: first failure wins
	// done is closed by fail (after err is set): session consumers park
	// on it instead of polling the sticky error.
	done chan struct{}

	// Multiplexed fetch session: at most one per connection,
	// multiplexing every subscribed topic-partition over a single
	// shared credit window (sessionclient.go). sessOpenMu serializes
	// session opens (never held while the reader needs sessMu); sessMu
	// guards the pointer.
	sessOpenMu sync.Mutex
	sessMu     sync.Mutex
	session    *clientSession
	nextSessID uint64

	// onMetaPush, set before the reader starts, adopts server-pushed
	// metadata documents into the client's routing table.
	onMetaPush func(*MetadataResp)
}

// Dial connects and authenticates with an access key/secret.
func Dial(addr, accessKeyID, secret string) (*Client, error) {
	return DialOptions(addr, Options{AccessKeyID: accessKeyID, Secret: secret})
}

// DialAnonymous connects without credentials (servers with
// AllowAnonymous only).
func DialAnonymous(addr string) (*Client, error) {
	return DialOptions(addr, Options{Anonymous: true})
}

// DialOptions connects with explicit pool and protocol options.
func DialOptions(addr string, o Options) (*Client, error) {
	o.fill()
	c := &Client{seed: addr, opts: o, eps: make(map[string]*endpoint)}
	// Establish the seed's slot 0 eagerly so bad credentials or an
	// unreachable server surface at dial time.
	if _, err := c.connAt(addr, 0); err != nil {
		return nil, err
	}
	// Bootstrap the routing table now: from here on, data-plane
	// requests dial partition leaders directly.
	_ = c.refreshMetadata() // failure leaves the router disabled: seed-only routing
	return c, nil
}

// errNow snapshots the connection's sticky error.
func (wc *wireConn) errNow() error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.err
}

// slotFor maps a topic-partition to its pool connection. Key-routed
// produces (partition < 0) hash the topic alone, so all of a topic's
// key-routed traffic shares one connection and per-key ordering holds.
// Reads only the immutable pool size, so it needs no lock.
func (c *Client) slotFor(topic string, partition int) int {
	n := c.opts.PoolSize
	if n == 1 || topic == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	if partition >= 0 {
		h ^= uint32(partition)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// endpoint returns (creating if needed) the connection pool for addr.
func (c *Client) endpoint(addr string) (*endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnClosed
	}
	ep := c.eps[addr]
	if ep == nil {
		ep = &endpoint{
			addr:   addr,
			slots:  make([]*wireConn, c.opts.PoolSize),
			slotMu: make([]sync.Mutex, c.opts.PoolSize),
		}
		c.eps[addr] = ep
	}
	return ep, nil
}

// connAt returns slot i of addr's pool, dialing if there is none.
func (c *Client) connAt(addr string, i int) (*wireConn, error) {
	ep, err := c.endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep.slotMu[i].Lock()
	defer ep.slotMu[i].Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	if wc := ep.slots[i]; wc != nil {
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	return c.installConn(ep, i)
}

// reconnectAt replaces slot i of addr's pool, unless another caller
// already has.
func (c *Client) reconnectAt(addr string, i int, old *wireConn) (*wireConn, error) {
	ep, err := c.endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep.slotMu[i].Lock()
	defer ep.slotMu[i].Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	if ep.slots[i] != nil && ep.slots[i] != old {
		wc := ep.slots[i]
		c.mu.Unlock()
		return wc, nil
	}
	ep.slots[i] = nil
	c.mu.Unlock()
	return c.installConn(ep, i)
}

// installConn dials a fresh connection and publishes it as slot i of
// the endpoint. Callers hold ep.slotMu[i] (but not c.mu, so other
// slots and endpoints keep flowing during the dial and handshake round
// trips).
func (c *Client) installConn(ep *endpoint, i int) (*wireConn, error) {
	wc, err := c.connect(ep.addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wc.fail(ErrConnClosed)
		return nil, ErrConnClosed
	}
	ep.slots[i] = wc
	c.mu.Unlock()
	return wc, nil
}

// connect dials, negotiates, starts the writer/reader goroutines, and
// authenticates. It touches only immutable client state, so no lock is
// held across the network round trips.
func (c *Client) connect(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, IOTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	rd := bufio.NewReaderSize(conn, 64<<10)
	if err := negotiate(conn, rd); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: negotiate with %s: %w", addr, err)
	}
	wc := &wireConn{
		conn:    conn,
		rd:      rd,
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	wc.cond = sync.NewCond(&wc.mu)
	// Pushed metadata re-routes before a request fails: adopt the
	// document synchronously on the reader (adoptMetadata never blocks
	// on network I/O) so the table is fresh before the next frame.
	wc.onMetaPush = c.adoptMetadata
	go wc.writeLoop()
	go wc.readLoop()

	// Authenticate (or probe, for anonymous connections), so rejection
	// surfaces at dial time.
	var hcl *call
	if c.opts.Anonymous {
		hcl = &call{op: v2OpPing, req: &PingReq{}, resp: &EmptyResp{}, done: make(chan struct{})}
	} else {
		hcl = &call{
			op:   v2OpAuth,
			req:  &AuthReq{AccessKeyID: c.opts.AccessKeyID, Secret: c.opts.Secret},
			resp: &AuthResp{}, done: make(chan struct{}),
		}
	}
	err = wc.do(hcl)
	if err == nil {
		err = hcl.srvErr
	}
	if err != nil {
		wc.fail(err)
		return nil, err
	}
	return wc, nil
}

// negotiate runs the connection-open handshake on the raw connection,
// before any goroutine reads or writes it: one JSON OpNegotiate
// exchange under IOTimeout. Every later frame in both directions is
// v2, so a frame the server sends straight after its answer (a
// metadata push) waits in rd and is read as v2 by construction. A
// server that cannot speak v2 answers with an error, which fails the
// dial.
func negotiate(conn net.Conn, rd *bufio.Reader) error {
	_ = conn.SetDeadline(time.Now().Add(IOTimeout))
	if err := WriteFrame(conn, &Request{Op: OpNegotiate, Corr: 1, MaxVersion: ProtocolV2}, nil); err != nil {
		return err
	}
	var resp Response
	if _, err := ReadFrame(rd, &resp); err != nil {
		return err
	}
	if resp.Err != "" || resp.Version < ProtocolV2 {
		return fmt.Errorf("server refused protocol v%d (answered version %d: %q)", ProtocolV2, resp.Version, resp.Err)
	}
	_ = conn.SetDeadline(time.Time{})
	return nil
}

// Close shuts every pool connection on every endpoint, failing all
// pending requests with ErrConnClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var conns []*wireConn
	for _, ep := range c.eps {
		for i, wc := range ep.slots {
			if wc != nil {
				conns = append(conns, wc)
				ep.slots[i] = nil
			}
		}
	}
	c.mu.Unlock()
	for _, wc := range conns {
		wc.fail(ErrConnClosed)
	}
	return nil
}

// do submits a prepared call on the connection and blocks for its
// completion, returning any transport/codec error (server-reported
// errors are in cl.srvErr).
func (wc *wireConn) do(cl *call) error {
	wc.mu.Lock()
	if wc.err != nil {
		err := wc.err
		wc.mu.Unlock()
		return err
	}
	wc.nextCorr++
	cl.corr = wc.nextCorr
	wc.queue = append(wc.queue, cl)
	wc.cond.Signal()
	wc.mu.Unlock()
	<-cl.done
	return cl.err
}

// sendOneway enqueues a request with no response (session credit
// grants, sub removals and closes) without blocking for its write:
// flow-control traffic must never stall the consumer behind the writer.
func (wc *wireConn) sendOneway(req ReqMsg) error {
	cl := &call{op: req.V2Op(), req: req, oneway: true, done: make(chan struct{})}
	wc.mu.Lock()
	if wc.err != nil {
		err := wc.err
		wc.mu.Unlock()
		return err
	}
	wc.nextCorr++
	cl.corr = wc.nextCorr
	wc.queue = append(wc.queue, cl)
	wc.cond.Signal()
	wc.mu.Unlock()
	return nil
}

// fail marks the connection broken and fans the error out to every
// pending caller. Queued-but-unwritten calls are completed by the writer
// on its way out (it is the only goroutine that touches their payloads).
// Idempotent: the first error wins.
func (wc *wireConn) fail(err error) {
	wc.mu.Lock()
	if wc.err != nil {
		wc.mu.Unlock()
		return
	}
	wc.err = err
	pending := wc.pending
	wc.pending = make(map[uint64]*call)
	wc.cond.Broadcast()
	// err is visible before done closes: session consumers woken by done
	// always observe the sticky error.
	close(wc.done)
	wc.mu.Unlock()
	wc.conn.Close()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

// writeLoop drains the queue, encoding every waiting frame into one
// buffer and writing them with a single syscall — pipelined requests
// coalesce on the wire. Each call is registered in pending just before
// its bytes are written, so a response can never arrive for an
// unregistered correlation ID.
func (wc *wireConn) writeLoop() {
	buf := make([]byte, 0, 4<<10)
	var batch, written []*call
	for {
		wc.mu.Lock()
		for len(wc.queue) == 0 && wc.err == nil {
			wc.cond.Wait()
		}
		if wc.err != nil {
			q := wc.queue
			wc.queue = nil
			err := wc.err
			wc.mu.Unlock()
			for _, cl := range q {
				cl.err = err
				close(cl.done)
			}
			return
		}
		batch = append(batch[:0], wc.queue...)
		wc.queue = wc.queue[:0]
		wc.mu.Unlock()

		buf = buf[:0]
		written = written[:0]
		for _, cl := range batch {
			n := len(buf)
			grown, err := appendFrameRequestV2(buf, cl.corr, cl.req, cl.payload)
			if err != nil {
				// Frame-level error (oversized, unmarshalable header):
				// fail this call alone, the connection is fine.
				buf = buf[:n]
				cl.err = err
				close(cl.done)
				continue
			}
			buf = grown
			written = append(written, cl)
		}
		if len(written) == 0 {
			continue
		}
		wc.mu.Lock()
		if wc.err != nil {
			// The connection died between dequeue and write; nothing was
			// sent for these calls, so complete them here.
			err := wc.err
			wc.mu.Unlock()
			for _, cl := range written {
				cl.err = err
				close(cl.done)
			}
			return
		}
		expectResp := false
		for _, cl := range written {
			if cl.oneway {
				continue
			}
			wc.pending[cl.corr] = cl
			expectResp = true
		}
		// A response must arrive within IOTimeout of the last write —
		// unless everything written was one-way (credit grants on an
		// otherwise idle session connection), where no response is owed
		// and an armed read deadline would kill a healthy idle link.
		_ = wc.conn.SetWriteDeadline(time.Now().Add(IOTimeout))
		if expectResp {
			_ = wc.conn.SetReadDeadline(time.Now().Add(IOTimeout))
		}
		wc.mu.Unlock()
		_, werr := wc.conn.Write(buf)
		for _, cl := range written {
			// One-way calls complete at write time, success or failure;
			// they are never in pending, so fail() cannot reach them.
			if cl.oneway {
				cl.err = werr
				close(cl.done)
			}
		}
		if werr != nil {
			wc.fail(werr)
			// Loop back: the top of the loop drains remaining queued
			// calls with the failure.
		}
		if cap(buf) > maxPooledFrame {
			buf = make([]byte, 0, 4<<10)
		}
	}
}

// readLoop reads response frames and dispatches them to pending calls
// by correlation ID, decoding the typed header and reading each payload
// directly into the matched caller's receive buffer when one was
// provided.
func (wc *wireConn) readLoop() {
	for {
		hb, err := readHeaderInto(wc.rd, &wc.hdrBuf)
		if err != nil {
			wc.fail(err)
			return
		}
		op, code, corr, body, err := decodeRespPrefixV2(hb)
		if err != nil {
			wc.fail(err)
			return
		}
		if op == v2OpSessionBatch || op == v2OpSessionClose {
			// Server-pushed session frame: corr packs session and sub
			// IDs (payload included); never touches pending.
			if err := wc.handleSessionPush(op, code, corr, body); err != nil {
				wc.fail(err)
				return
			}
			continue
		}
		if op == v2OpMetadataPush {
			// Server-pushed cluster metadata: adopt the fresh routing
			// table so the next request already targets the new leaders.
			var md *MetadataResp
			if code == codeOK {
				md = &MetadataResp{}
				if err := md.DecodeBody(body); err != nil {
					wc.fail(err)
					return
				}
			}
			if _, err := ReadPayloadInto(wc.rd, nil); err != nil {
				wc.fail(err)
				return
			}
			if md != nil && wc.onMetaPush != nil {
				wc.onMetaPush(md)
			}
			continue
		}

		wc.mu.Lock()
		cl := wc.pending[corr]
		delete(wc.pending, corr)
		wc.mu.Unlock()

		// Decode the header into the matched call before hdrBuf is
		// reused by the next frame. Decode errors complete only this
		// call; the connection framing is still intact.
		if cl != nil {
			switch {
			case code != codeOK:
				if detail, _, derr := getStr(body); derr != nil {
					cl.err = derr
				} else {
					cl.srvErr = errFromCode(code, detail)
				}
			case op != cl.op:
				cl.err = fmt.Errorf("wire: response op %d for request op %d", op, cl.op)
			case cl.resp != nil:
				cl.err = cl.resp.DecodeBody(body)
			}
		}

		var arena []byte
		if cl != nil {
			arena = cl.arena
		}
		data, err := ReadPayloadInto(wc.rd, arena)
		if err != nil {
			// cl is already out of the pending map, so fail() cannot
			// reach it — complete it here or its caller hangs.
			if cl != nil {
				cl.err = err
				close(cl.done)
			}
			wc.fail(err)
			return
		}
		wc.mu.Lock()
		if len(wc.pending) == 0 {
			// Idle: don't let the last exchange's deadline kill the
			// connection while nothing is outstanding.
			_ = wc.conn.SetReadDeadline(time.Time{})
		} else if wc.rd.Buffered() == 0 {
			// Deadline syscalls only when the next frame isn't already
			// buffered — at full pipeline depth responses arrive many per
			// read, and per-frame deadline churn costs real throughput.
			_ = wc.conn.SetReadDeadline(time.Now().Add(IOTimeout))
		}
		wc.mu.Unlock()
		if cap(wc.hdrBuf) > maxPooledFrame {
			// One giant header (a stats snapshot, a many-topic metadata
			// document) must not pin its buffer.
			wc.hdrBuf = nil
		}
		if cl != nil {
			cl.data = data
			if data != nil {
				cl.arena = data
			}
			close(cl.done)
		}
	}
}

// callAt submits a typed request on the addressed endpoint's
// partition-affine connection, waits for its response, and retries
// once over a fresh connection to the same address on transport
// failure — the router (router.go) and the SDK's retry loop handle
// persistent failure and re-routing. The returned error is either a
// transport error or the server's reconstructed domain sentinel.
func (c *Client) callAt(addr string, slot int, req ReqMsg, resp Msg, payload, arena []byte) (*call, error) {
	wc, err := c.connAt(addr, slot)
	if err != nil {
		return nil, err
	}
	cl := &call{op: req.V2Op(), req: req, resp: resp, payload: payload, arena: arena, done: make(chan struct{})}
	derr := wc.do(cl)
	if derr == nil {
		return cl, cl.srvErr
	}
	if errors.Is(derr, ErrConnClosed) {
		return nil, derr
	}
	wc.mu.Lock()
	alive := wc.err == nil
	wc.mu.Unlock()
	if alive {
		// Call-local failure (oversized frame, codec error): the
		// connection is fine and a retry would fail identically.
		return nil, derr
	}
	wc2, rerr := c.reconnectAt(addr, slot, wc)
	if rerr != nil {
		return nil, derr
	}
	cl2 := &call{op: req.V2Op(), req: req, resp: resp, payload: payload, arena: cl.arena, done: make(chan struct{})}
	if derr := wc2.do(cl2); derr != nil {
		return nil, derr
	}
	return cl2, cl2.srvErr
}

// producePool recycles produce payload buffers: the payload is fully
// encoded into the writer's frame buffer before the call completes, so
// it can be reused as soon as the round trip returns.
var producePool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// Produce implements client.Transport. identity is established by the
// connection's credentials; the parameter is ignored.
//
// With the router active, a per-event-routed batch (partition < 0) is
// pre-partitioned client-side — keyed events through the fabric's own
// FNV-1a partitioner, unkeyed events round-robin — and each bucket is
// produced directly against its partition's leader. Without the
// router the whole batch travels to the seed address, which routes per
// event exactly as before.
func (c *Client) Produce(_ string, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	if partition < 0 && c.RouterEnabled() {
		if parts, ok := c.produceParts(topic); ok && parts > 0 {
			return c.producePartitioned(topic, parts, evs, acks)
		}
	}
	return c.produceTo(topic, partition, evs, acks)
}

// produceTo produces one batch to a single partition (or, when
// partition < 0, to the seed's per-event router).
func (c *Client) produceTo(topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	req := ProduceReq{Topic: topic, Partition: partition, Acks: int(acks), NumEvents: len(evs)}
	var resp ProduceResp
	bp := producePool.Get().(*[]byte)
	payload := event.AppendBatchMarshal((*bp)[:0], evs)
	_, err := c.dataCall(topic, partition, &req, &resp, payload, nil)
	if cap(payload) <= maxPooledFrame {
		*bp = payload[:0]
		producePool.Put(bp)
	}
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// producePartitioned buckets a per-event-routed batch by partition and
// produces every bucket concurrently against its leader. The returned
// offset is the first bucket's base offset, matching the fabric's
// Produce contract for multi-partition batches. A batch whose events
// all map to one partition — every one-event batch — goes out as it is,
// without bucketing.
func (c *Client) producePartitioned(topic string, parts int, evs []event.Event, acks broker.Acks) (int64, error) {
	if parts == 1 || len(evs) == 0 {
		return c.produceTo(topic, 0, evs, acks)
	}
	first := c.partitionFor(&evs[0], parts)
	split := 1 // evs[:split] all map to first
	p := first
	for ; split < len(evs); split++ {
		if p = c.partitionFor(&evs[split], parts); p != first {
			break
		}
	}
	if split == len(evs) {
		return c.produceTo(topic, first, evs, acks)
	}
	buckets := make([][]event.Event, parts)
	buckets[first] = evs[:split:split] // full cap: appends copy, never write into evs
	order := append(make([]int, 0, parts), first)
	for i := split; i < len(evs); i++ {
		if i > split {
			p = c.partitionFor(&evs[i], parts)
		}
		if buckets[p] == nil {
			order = append(order, p)
		}
		buckets[p] = append(buckets[p], evs[i])
	}
	offs := make([]int64, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, p := range order {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			offs[i], errs[i] = c.produceTo(topic, p, buckets[p], acks)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return offs[0], nil
}

// partitionFor routes one event of a per-event-routed batch: keyed
// events through the fabric's partitioner, unkeyed ones round-robin.
func (c *Client) partitionFor(ev *event.Event, parts int) int {
	if len(ev.Key) > 0 {
		return broker.PartitionForKey(ev.Key, parts)
	}
	return int(c.prodRR.Add(1) % uint64(parts))
}

// Fetch implements client.Transport.
func (c *Client) Fetch(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int) (broker.FetchResult, error) {
	req := FetchReq{Topic: topic, Partition: partition, Offset: offset, MaxEvents: maxEvents, MaxBytes: maxBytes}
	var resp FetchResp
	cl, err := c.dataCall(topic, partition, &req, &resp, nil, nil)
	if err != nil {
		return broker.FetchResult{}, err
	}
	evs, err := DecodeEvents(cl.data, resp.NumEvents)
	if err != nil {
		return broker.FetchResult{}, err
	}
	resp.Stamp(evs, topic, partition)
	return broker.FetchResult{Events: evs, HighWatermark: resp.HighWatermark, StartOffset: resp.StartOffset}, nil
}

// FetchBuffered implements the SDK consumer's buffered-fetch extension
// (client.BufferedFetcher). The call is served from the connection's
// fetch session the server pushes into — zero request round trips at
// steady state; see sessionclient.go. The session keeps its own
// double-buffered frames and decode arrays, so buf is unused. Returned
// events are valid until the next fetch on this topic-partition.
func (c *Client) FetchBuffered(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int, _ *broker.FetchBuffer) (broker.FetchResult, error) {
	return c.fetchBuffered(topic, partition, offset, maxEvents, maxBytes, 0)
}

// FetchBufferedWait implements the SDK's long-poll extension
// (client.WaitFetcher): an empty fetch blocks up to wait for data,
// parked on the subscription's local queue, so an idle consumer stops
// hot-looping.
func (c *Client) FetchBufferedWait(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, _ *broker.FetchBuffer) (broker.FetchResult, error) {
	return c.fetchBuffered(topic, partition, offset, maxEvents, maxBytes, wait)
}

func (c *Client) fetchBuffered(topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration) (broker.FetchResult, error) {
	res, err := c.fetchBufferedAt(c.dataAddr(topic, partition), topic, partition, offset, maxEvents, maxBytes, wait)
	if err == nil || !c.RouterEnabled() || !rerouteable(err) {
		return res, err
	}
	// The partition's leader moved or its broker connection failed:
	// re-fetch metadata and retry once against the freshly resolved
	// leader. Session subscriptions re-subscribe there at the same
	// offset — the consumer's position, which the new leader serves
	// because a consumer only ever reads below the high watermark.
	if rerr := c.refreshMetadata(); rerr != nil {
		return res, err
	}
	return c.fetchBufferedAt(c.dataAddr(topic, partition), topic, partition, offset, maxEvents, maxBytes, wait)
}

// fetchBufferedAt serves one buffered fetch from the addressed broker
// through the connection's multiplexed fetch session. A connection that
// has already failed is replaced before the session opens, and a
// transport failure mid-fetch gets callAt's single retry over a fresh
// connection to the same address.
func (c *Client) fetchBufferedAt(addr, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration) (broker.FetchResult, error) {
	slot := c.slotFor(topic, partition)
	wc, err := c.connAt(addr, slot)
	if err != nil {
		return broker.FetchResult{}, err
	}
	if wc.errNow() != nil {
		if wc, err = c.reconnectAt(addr, slot, wc); err != nil {
			return broker.FetchResult{}, err
		}
	}
	res, err := c.fetchSession(wc, topic, partition, offset, maxEvents, maxBytes, wait)
	if err == nil || errors.Is(err, ErrConnClosed) || wc.errNow() == nil {
		return res, err
	}
	wc2, rerr := c.reconnectAt(addr, slot, wc)
	if rerr != nil {
		return broker.FetchResult{}, err
	}
	return c.fetchSession(wc2, topic, partition, offset, maxEvents, maxBytes, wait)
}

// offsetCall runs a partition-routed request whose response is a
// single offset.
func (c *Client) offsetCall(topic string, partition int, req ReqMsg) (int64, error) {
	var resp OffsetResp
	if _, err := c.dataCall(topic, partition, req, &resp, nil, nil); err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// EndOffset implements client.Transport.
func (c *Client) EndOffset(topic string, partition int) (int64, error) {
	return c.offsetCall(topic, partition, &EndOffsetReq{Topic: topic, Partition: partition})
}

// StartOffset implements client.Transport.
func (c *Client) StartOffset(topic string, partition int) (int64, error) {
	return c.offsetCall(topic, partition, &StartOffsetReq{Topic: topic, Partition: partition})
}

// OffsetForTime implements client.Transport.
func (c *Client) OffsetForTime(topic string, partition int, t time.Time) (int64, error) {
	return c.offsetCall(topic, partition, &OffsetForTimeReq{Topic: topic, Partition: partition, TimeNano: t.UnixNano()})
}

// TopicMeta implements client.Transport.
func (c *Client) TopicMeta(topic string) (*cluster.TopicMeta, error) {
	req := TopicMetaReq{Topic: topic}
	var resp TopicMetaResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return nil, err
	}
	return resp.Meta, nil
}

// JoinGroup implements client.Transport.
func (c *Client) JoinGroup(groupID, memberID string, topics []string) (broker.Assignment, error) {
	req := JoinGroupReq{Group: groupID, Member: memberID, Topics: topics}
	var resp JoinGroupResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return broker.Assignment{}, err
	}
	return broker.Assignment{Generation: resp.Generation, Partitions: resp.Partitions}, nil
}

// LeaveGroup implements client.Transport.
func (c *Client) LeaveGroup(groupID, memberID string) {
	req := LeaveGroupReq{Group: groupID, Member: memberID}
	_, _ = c.controlCall(&req, nil)
}

// Heartbeat implements client.Transport.
func (c *Client) Heartbeat(groupID, memberID string) (int, error) {
	req := HeartbeatReq{Group: groupID, Member: memberID}
	var resp HeartbeatResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

// Commit implements client.Transport.
func (c *Client) Commit(groupID, memberID string, generation int, topic string, partition int, offset int64) error {
	req := CommitReq{
		Group: groupID, Member: memberID, Generation: generation,
		Topic: topic, Partition: partition, Offset: offset,
	}
	_, err := c.controlCall(&req, nil)
	return err
}

// Stats fetches an observability snapshot — exported metrics plus the
// produce stage-trace ring — from the control endpoint's broker.
func (c *Client) Stats() (*StatsResp, error) {
	var resp StatsResp
	if _, err := c.controlCall(&StatsReq{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// StatsAt fetches an observability snapshot from one specific broker
// address — per-broker state (histograms, traces) is local to each
// broker, so cluster tooling scrapes every advertised address.
func (c *Client) StatsAt(addr string) (*StatsResp, error) {
	var resp StatsResp
	if _, err := c.callAt(addr, 0, &StatsReq{}, &resp, nil, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Committed implements client.Transport.
func (c *Client) Committed(groupID, topic string, partition int) int64 {
	var resp OffsetResp
	if _, err := c.controlCall(&CommittedReq{Group: groupID, Topic: topic, Partition: partition}, &resp); err != nil {
		return -1
	}
	return resp.Offset
}
