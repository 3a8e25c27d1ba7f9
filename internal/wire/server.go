package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// maxConnConcurrency bounds in-flight requests per connection: deep
// enough that a pipelined client never stalls on the server, bounded so
// a misbehaving peer cannot spawn unbounded handler goroutines.
const maxConnConcurrency = 64

// MaxFetchWait caps a replica fetch's WaitMaxMS server-side, keeping
// every parked handler comfortably inside the client's IOTimeout so a
// long-poll can never be mistaken for a dead connection.
const MaxFetchWait = 10 * time.Second

// errUnknownOp reports a request op the server does not implement.
var errUnknownOp = errors.New("wire: unknown op")

// Server exposes a fabric over TCP. Each connection authenticates once
// with an IAM-style access key (OpAuth) and then issues data-plane
// requests under that identity; ACLs are enforced by the fabric.
//
// A connection opens with one JSON OpNegotiate exchange that agrees on
// protocol v2; every later frame in both directions carries a typed
// binary header. A client whose first frame is anything else gets one
// error answer and the connection closes.
//
// Requests on one connection are handled concurrently (up to
// maxConnConcurrency in flight): the read loop decodes each header,
// dispatches the typed request to a handler goroutine, and responses
// are written, correlation-tagged, in completion order — a slow fetch
// does not block the produces pipelined behind it.
type Server struct {
	Fabric *broker.Fabric
	// AllowAnonymous lets connections skip OpAuth and act as the
	// trusted in-process identity. Off by default; used by tests and
	// single-user deployments.
	AllowAnonymous bool
	// LocalBroker scopes this server to one broker of the fabric:
	// produce, fetch and session-subscribe requests for partitions that
	// broker does not lead are refused with ErrNotLeader (and counted
	// in Misroutes) instead of silently served from the shared
	// in-process state — the per-broker serving contract of
	// internal/clusternet. The default -1 serves every partition, the
	// single-listener behavior.
	LocalBroker int

	// misroutes counts data-plane requests refused with ErrNotLeader.
	// A leader-direct client fleet should hold it at zero in steady
	// state; failover tests assert exactly that.
	misroutes atomic.Int64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	watching bool
	stop     chan struct{}
	wg       sync.WaitGroup

	metOnce sync.Once
	reg     *metrics.Registry
	met_    *serverMetrics
}

// connState is the per-connection state the server tracks outside the
// connection's own read loop, so the metadata pusher can find every
// authenticated connection. Mutated under Server.mu (auth happens once
// per connection; pushes read a snapshot).
type connState struct {
	w      *respWriter
	authed bool
}

// serverMetrics is the server's session instrumentation, exported
// through an internal/metrics Registry (see Server.Metrics).
type serverMetrics struct {
	// sessionsOpen gauges currently open fetch sessions across all
	// connections.
	sessionsOpen *metrics.Gauge
	// pumpParks counts session pump parks (no credit or no ready sub);
	// creditStalls counts the subset parked with data ready but no
	// window — true client backpressure.
	pumpParks    *metrics.Counter
	creditStalls *metrics.Counter
	// metaPushes counts pushed metadata frames.
	metaPushes *metrics.Counter
	// produceNs / fetchNs time the server-side dispatch of produce and
	// fetch requests — decode, fabric call, response build — the
	// broker's wire-visible service time, minus transport queueing. A
	// fetch never parks: it answers what the log holds, empty at the
	// tail.
	produceNs *metrics.BucketHist
	fetchNs   *metrics.BucketHist
	// sessionBatch sizes every batch the session pumps push, in events
	// — the server-push twin of the fabric's fetch_batch_events.
	sessionBatch *metrics.BucketHist
}

// met returns the server's metrics, creating the registry on first use.
func (s *Server) met() *serverMetrics {
	s.metOnce.Do(func() {
		s.reg = metrics.NewRegistry()
		s.met_ = &serverMetrics{
			sessionsOpen: s.reg.Gauge("wire_sessions_open"),
			pumpParks:    s.reg.Counter("wire_session_pump_parks"),
			creditStalls: s.reg.Counter("wire_session_credit_stalls"),
			metaPushes:   s.reg.Counter("wire_meta_pushes"),
			produceNs:    s.reg.BucketHist("wire_produce_ns"),
			fetchNs:      s.reg.BucketHist("wire_fetch_ns"),
			sessionBatch: s.reg.BucketHist("wire_session_batch_events"),
		}
	})
	return s.met_
}

// Metrics exposes the server's session counters: open sessions,
// session pump parks and credit stalls, and pushed metadata frames.
func (s *Server) Metrics() *metrics.Registry {
	s.met()
	return s.reg
}

// NewServer creates a wire server for the fabric, serving every
// partition (LocalBroker -1).
func NewServer(f *broker.Fabric) *Server {
	return &Server{
		Fabric: f, conns: make(map[net.Conn]*connState),
		LocalBroker: -1, stop: make(chan struct{}),
	}
}

// NewBrokerServer creates a wire server scoped to one broker of the
// fabric: the per-node serving view clusternet binds to each broker's
// advertised address.
func NewBrokerServer(f *broker.Fabric, brokerID int) *Server {
	s := NewServer(f)
	s.LocalBroker = brokerID
	return s
}

// Misroutes reports how many data-plane requests this server refused
// with ErrNotLeader because they targeted a partition its broker does
// not lead.
func (s *Server) Misroutes() int64 { return s.misroutes.Load() }

// leaderCheck enforces the per-broker serving scope: a data-plane
// request for a partition led elsewhere is refused with ErrNotLeader
// carrying the current leader's id, so the client knows to re-fetch
// metadata and re-route. Unscoped servers (LocalBroker < 0) and
// per-event-routed produces (partition < 0, the single-address
// fallback path) pass through.
func (s *Server) leaderCheck(topic string, partition int) error {
	leader, err := s.otherLeader(topic, partition)
	if err != nil || leader < 0 {
		return err
	}
	return s.misrouted(topic, partition, leader)
}

// replicaCheck is leaderCheck for the replica ops, which carry the
// follower's leader epoch. A follower whose epoch predates the
// partition's current one is fenced wherever its request lands: it
// acted on leadership the controller has since replaced (a follower
// just elected leader, whose fetch loop has not been stopped yet), so
// it must re-read the controller, not re-route, and the request is no
// misroute.
func (s *Server) replicaCheck(topic string, partition int, epoch int64) error {
	leader, err := s.otherLeader(topic, partition)
	if err != nil || leader < 0 {
		return err
	}
	if pm, perr := s.Fabric.Ctl.Partition(topic, partition); perr == nil && epoch < pm.LeaderEpoch {
		return fmt.Errorf("%w: %s/%d epoch %d, current %d", ErrFencedEpoch, topic, partition, epoch, pm.LeaderEpoch)
	}
	return s.misrouted(topic, partition, leader)
}

// otherLeader returns the partition's leader when a scoped server's
// broker does not lead it, -1 when the request is in scope.
func (s *Server) otherLeader(topic string, partition int) (int, error) {
	if s.LocalBroker < 0 || partition < 0 {
		return -1, nil
	}
	leader, err := s.Fabric.PartitionLeader(topic, partition)
	if err != nil || leader == s.LocalBroker {
		return -1, err
	}
	return leader, nil
}

// misrouted counts and refuses a request for a partition led elsewhere.
func (s *Server) misrouted(topic string, partition, leader int) error {
	s.misroutes.Add(1)
	return fmt.Errorf("%w: %s/%d is led by broker %d, not broker %d",
		ErrNotLeader, topic, partition, leader, s.LocalBroker)
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	if s.stop == nil {
		s.stop = make(chan struct{})
	}
	// Start the metadata pusher with the first listener: on every
	// controller epoch bump it pushes the fresh cluster view to every
	// authenticated connection, so clients re-route before a request
	// fails rather than after.
	watch := !s.watching && s.Fabric.Ctl != nil
	if watch {
		s.watching = true
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if watch {
		go s.watchEpochs()
	}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// watchEpochs pushes cluster metadata to every authenticated
// connection on each controller epoch bump. Bursts of bumps coalesce in
// the watcher's channel, so a storm of topology changes costs a handful
// of pushes, not one per change.
func (s *Server) watchEpochs() {
	defer s.wg.Done()
	ch, cancel := s.Fabric.Ctl.WatchEpoch()
	defer cancel()
	for {
		select {
		case <-s.stop:
			return
		case <-ch:
		}
		s.pushMetadata()
	}
}

// pushMetadata builds one metadata response and pushes it (corr 0 —
// push frames are routed by op, not correlation) to every
// authenticated connection.
func (s *Server) pushMetadata() {
	resp := buildMetadataResp(s.Fabric, nil)
	s.mu.Lock()
	targets := make([]*respWriter, 0, len(s.conns))
	for _, cst := range s.conns {
		if cst.w != nil && cst.authed {
			targets = append(targets, cst.w)
		}
	}
	s.mu.Unlock()
	met := s.met()
	for _, w := range targets {
		if w.writeV2(v2OpMetadataPush, 0, resp, nil, nil) == nil {
			met.metaPushes.Inc()
		}
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = &connState{authed: s.AllowAnonymous}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.stop != nil {
		close(s.stop)
	}
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// respWriter coalesces response frames from a connection's concurrent
// handlers: frames accumulate in a pending buffer under the lock and a
// flusher goroutine writes whatever has piled up in one syscall. When
// many requests are in flight, their responses leave as a handful of
// packets — which also lets the client's reader drain them from one
// netpoll wakeup instead of one per response.
//
// The pending buffer and the one being written swap on every flush and
// are both kept for the next cycle (up to maxRetainedWriteBuf), so a
// steady push stream allocates nothing here. What bounds them is the
// only bulk pusher no request bounds: a session pump waits in
// waitPending before fetching while maxPooledFrame bytes are pending.
type respWriter struct {
	conn net.Conn

	mu      sync.Mutex
	cond    *sync.Cond // wakes the flusher: data pending, failure or close
	drained *sync.Cond // wakes pumps in waitPending: buffer taken, failure, close or session stop
	buf     []byte     // encoded frames awaiting flush
	err     error      // sticky write failure
	closed  bool
	done    chan struct{} // closed when the flusher exits
}

// maxRetainedWriteBuf caps the capacity of a write buffer the respWriter
// keeps across flushes: pending push bytes stay under maxPooledFrame
// plus one frame, so at steady state both buffers fit and are reused;
// an outsized request response is written once and then dropped.
const maxRetainedWriteBuf = 2 * maxPooledFrame

func newRespWriter(conn net.Conn) *respWriter {
	w := &respWriter{conn: conn, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	w.drained = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// writeV2 enqueues one v2 response frame: a typed binary header (or an
// error code + detail when respErr is non-nil) followed by the payload —
// a fetched batch's stored event encodings, as the partition log read
// them — copied into the pending buffer. The buffer grows amortised
// (append), and at steady state not at all, since it is reused across
// flushes. It never blocks on the peer; only session pumps wait, in
// waitPending.
func (w *respWriter) writeV2(op uint8, corr uint64, m Msg, respErr error, payload []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	buf, err := appendFrameResponseV2(w.buf, op, corr, m, respErr, payload)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.buf = buf
	w.cond.Signal()
	w.mu.Unlock()
	return nil
}

// waitPending parks the caller while limit or more bytes are pending,
// until the flusher takes the buffer, the writer fails or closes, or
// stop is closed (whoever closes stop then calls wakePending). It
// reports false once the writer has failed or closed.
func (w *respWriter) waitPending(limit int, stop <-chan struct{}) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.buf) >= limit && w.err == nil && !w.closed {
		select {
		case <-stop:
			return true
		default:
		}
		w.drained.Wait()
	}
	return w.err == nil && !w.closed
}

// wakePending releases every waitPending caller to recheck its stop
// channel. Taking the lock orders it after any check already made.
func (w *respWriter) wakePending() {
	w.mu.Lock()
	w.drained.Broadcast()
	w.mu.Unlock()
}

// close stops the flusher and waits for everything enqueued to reach
// the connection, so tearing the connection down cannot drop responses
// to requests that were already handled. The write deadline bounds the
// wait when the peer has stopped reading.
func (w *respWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.drained.Broadcast()
	w.mu.Unlock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(IOTimeout))
	<-w.done
}

func (w *respWriter) flushLoop() {
	defer close(w.done)
	var out []byte
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && w.err == nil && !w.closed {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.buf) == 0) {
			w.mu.Unlock()
			return
		}
		out, w.buf = w.buf, out[:0]
		w.drained.Broadcast()
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		if err != nil {
			w.mu.Lock()
			w.err = err
			w.cond.Broadcast()
			w.drained.Broadcast()
			w.mu.Unlock()
			// Wake the read loop so the connection tears down.
			w.conn.Close()
			return
		}
		if cap(out) > maxRetainedWriteBuf {
			out = nil
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// Buffered reads: a pipelined client coalesces many frames per
	// write, so the read loop should not pay three syscalls per frame.
	// Payload buffers are allocated fresh per frame: a request's handler
	// may still be running when the next frame is read.
	rd := bufio.NewReaderSize(conn, 64<<10)
	if !s.handshake(conn, rd) {
		return
	}
	var handlers sync.WaitGroup
	w := newRespWriter(conn)
	// done interrupts parked long-polls the moment the read loop exits,
	// so teardown never blocks behind a wait.
	done := make(chan struct{})
	sessions := newConnSessions(s, w)
	// cst mirrors this connection's auth state for the metadata
	// pusher; all mutations happen under s.mu.
	s.mu.Lock()
	cst := s.conns[conn]
	if cst != nil {
		cst.w = w
	}
	s.mu.Unlock()
	defer func() {
		close(done)
		sessions.closeAll()
		handlers.Wait()
		w.close()
	}()
	sem := make(chan struct{}, maxConnConcurrency)
	identity := ""
	authed := s.AllowAnonymous
	// interner canonicalizes topic strings across this connection's
	// data-plane requests (see intern.go). Only the read loop decodes,
	// so it is unsynchronized by construction.
	var interner Interner
	var hdrBuf []byte
	for {
		hb, err := readHeaderInto(rd, &hdrBuf)
		if err != nil {
			return // EOF or broken connection
		}
		corr, op, m, derr := decodeAnyRequestV2(hb, &interner)
		payload, err := ReadPayloadInto(rd, nil)
		if err != nil {
			return
		}
		if derr != nil {
			if len(hb) < v2ReqPrefix {
				// Header too short for even the prefix: the peer is
				// not speaking v2 framing, drop the connection.
				return
			}
			// Unknown op or malformed body with an intact prefix:
			// answer with a typed error, the framing is fine.
			if w.writeV2(op, corr, nil, derr, nil) != nil {
				return
			}
			continue
		}
		// Connection-state ops are handled inline on the read loop:
		// auth flips the principal, session ops mutate the session
		// registry. All are non-blocking (open's pump runs async).
		switch q := m.(type) {
		case *AuthReq:
			resp, aerr := s.authenticate(q, &identity, &authed)
			if aerr == nil {
				s.mu.Lock()
				if cst != nil {
					cst.authed = true
				}
				s.mu.Unlock()
			}
			putReqMsg(op, m)
			if w.writeV2(op, corr, resp, aerr, nil) != nil {
				return
			}
			continue
		case *MetadataReq:
			// Control-plane and cheap: handled inline like auth. Gated
			// on authentication — cluster topology (broker addresses,
			// liveness, leadership) must not leak to anyone who can
			// merely reach a port.
			var resp *MetadataResp
			var merr error
			if authed {
				resp = buildMetadataResp(s.Fabric, q.Topics)
			} else {
				merr = fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
			}
			putReqMsg(op, m)
			if w.writeV2(op, corr, resp, merr, nil) != nil {
				return
			}
			continue
		case *SessionOpenReq:
			resp, oerr := sessions.open(q, identity, authed)
			putReqMsg(op, m)
			if oerr != nil {
				if w.writeV2(op, corr, nil, oerr, nil) != nil {
					return
				}
				continue
			}
			if w.writeV2(op, corr, resp, nil, nil) != nil {
				return
			}
			continue
		case *SessionSubReq:
			// Always answered — the client treats removes as one-way
			// and lets the response drop, but adds need the partition
			// positions back.
			resp, serr := sessions.sub(q, authed)
			putReqMsg(op, m)
			if serr != nil {
				if w.writeV2(op, corr, nil, serr, nil) != nil {
					return
				}
				continue
			}
			if w.writeV2(op, corr, resp, nil, nil) != nil {
				return
			}
			continue
		case *SessionCreditReq:
			// One-way: grants for closed sessions are silently dropped.
			sessions.credit(q.SessionID, q.CreditBytes)
			putReqMsg(op, m)
			continue
		case *SessionCloseReq:
			sessions.closeSession(q.SessionID)
			putReqMsg(op, m)
			continue
		case *StatsReq:
			// Control-plane and cheap: handled inline like metadata,
			// with the same auth gate — a broker's telemetry (traffic
			// volumes, latency shapes, topology hints in metric names)
			// must not leak to anyone who can merely reach a port.
			var resp *StatsResp
			var serr error
			if authed {
				resp = buildStatsResp(s)
			} else {
				serr = fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
			}
			putReqMsg(op, m)
			if w.writeV2(op, corr, resp, serr, nil) != nil {
				return
			}
			continue
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(op uint8, corr uint64, m ReqMsg, payload []byte, identity string, authed bool) {
			defer handlers.Done()
			defer func() { <-sem }()
			resp, out, err := s.dispatch(m, payload, identity, authed, done)
			var data []byte
			if out != nil {
				data = out.Payload
			}
			if werr := w.writeV2(op, corr, resp, err, data); errors.Is(werr, ErrFrameTooLarge) {
				// The success response didn't fit its frame bound
				// (e.g. a pathologically fragmented offset run list):
				// the caller must still get an answer, or it hangs
				// until the deadline kills the whole connection.
				// Error frames are tiny and always fit.
				_ = w.writeV2(op, corr, nil, werr, nil)
			}
			putEncoded(out)
			putReqMsg(op, m)
		}(op, corr, m, payload, identity, authed)
	}
}

// handshake reads the connection's first frame, which must be a JSON
// OpNegotiate offering protocol v2, and answers it with v2; every later
// frame in both directions is v2. Any other first frame — a request
// from a client that cannot speak v2, or bytes that are not a JSON
// header — gets one JSON error answer, and false tells the caller to
// close the connection.
func (s *Server) handshake(conn net.Conn, rd *bufio.Reader) bool {
	var hdrBuf []byte
	hb, err := readHeaderInto(rd, &hdrBuf)
	if err != nil {
		return false
	}
	if _, err := ReadPayloadInto(rd, nil); err != nil {
		return false
	}
	var req Request
	if json.Unmarshal(hb, &req) != nil || req.Op != OpNegotiate || req.MaxVersion < ProtocolV2 {
		_ = WriteFrame(conn, &Response{
			Corr:    req.Corr,
			Err:     fmt.Sprintf("%v %q: this server speaks protocol v%d only, opened by %q", errUnknownOp, req.Op, ProtocolV2, OpNegotiate),
			ErrKind: "unknown_op",
		}, nil)
		return false
	}
	return WriteFrame(conn, &Response{Corr: req.Corr, Version: ProtocolV2}, nil) == nil
}

// authenticate handles OpAuth against the fabric's identity store.
func (s *Server) authenticate(a *AuthReq, identity *string, authed *bool) (*AuthResp, error) {
	ident, err := s.Fabric.Auth.Authenticate(a.AccessKeyID, a.Secret)
	if err != nil {
		return nil, err
	}
	*identity = ident.ID
	*authed = true
	return &AuthResp{Identity: ident.ID}, nil
}

// encodedPool recycles the read buffers fetch and replica fetch
// responses are served from.
var encodedPool = sync.Pool{New: func() any { return new(eventlog.Encoded) }}

// getEncoded returns an empty pooled read buffer.
func getEncoded() *eventlog.Encoded {
	b := encodedPool.Get().(*eventlog.Encoded)
	b.Reset()
	return b
}

// putEncoded recycles b (nil is ignored), dropping an outsized one.
func putEncoded(b *eventlog.Encoded) {
	if b != nil && cap(b.Payload) <= maxPooledFrame {
		encodedPool.Put(b)
	}
}

// dispatch executes one data-plane request against the fabric.
// Responses with a payload (fetch, replica fetch) return the pooled
// read that holds it — the records' stored encodings, which the
// respWriter copies into the connection's pending write buffer; the
// caller recycles it with putEncoded. stop interrupts replica-fetch
// long-polls when the connection tears down.
func (s *Server) dispatch(m ReqMsg, payload []byte, identity string, authed bool, stop <-chan struct{}) (Msg, *eventlog.Encoded, error) {
	if !authed {
		return nil, nil, fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
	}
	switch q := m.(type) {
	case *PingReq:
		return &EmptyResp{}, nil, nil
	case *ProduceReq:
		if err := s.leaderCheck(q.Topic, q.Partition); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		evs, err := DecodeEvents(payload, q.NumEvents)
		if err != nil {
			return nil, nil, err
		}
		// Decoded events alias the frame buffer only until the partition
		// log has copied them into its own chunk.
		off, err := s.Fabric.Produce(identity, q.Topic, q.Partition, evs, broker.Acks(q.Acks))
		if err != nil {
			return nil, nil, err
		}
		s.met().produceNs.Observe(int64(time.Since(t0)))
		return &ProduceResp{Offset: off}, nil, nil
	case *FetchReq:
		if err := s.leaderCheck(q.Topic, q.Partition); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		out := getEncoded()
		res, err := s.Fabric.FetchEncoded(identity, q.Topic, q.Partition, q.Offset, q.MaxEvents, q.MaxBytes, out)
		if err != nil {
			putEncoded(out)
			return nil, nil, err
		}
		resp := &FetchResp{NumEvents: out.Events, HighWatermark: res.HighWatermark, StartOffset: res.StartOffset}
		resp.setRuns(out.Runs)
		s.met().fetchNs.Observe(int64(time.Since(t0)))
		return resp, out, nil
	case *EndOffsetReq:
		off, err := s.Fabric.EndOffset(q.Topic, q.Partition)
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *StartOffsetReq:
		off, err := s.Fabric.StartOffset(q.Topic, q.Partition)
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *OffsetForTimeReq:
		off, err := s.Fabric.OffsetForTime(q.Topic, q.Partition, time.Unix(0, q.TimeNano))
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *TopicMetaReq:
		meta, err := s.Fabric.Ctl.Topic(q.Topic)
		if err != nil {
			return nil, nil, err
		}
		return &TopicMetaResp{Meta: meta}, nil, nil
	case *JoinGroupReq:
		asn, err := s.Fabric.Groups.Join(q.Group, q.Member, q.Topics)
		if err != nil {
			return nil, nil, err
		}
		return &JoinGroupResp{Generation: asn.Generation, Partitions: asn.Partitions}, nil, nil
	case *LeaveGroupReq:
		s.Fabric.Groups.Leave(q.Group, q.Member)
		return &EmptyResp{}, nil, nil
	case *HeartbeatReq:
		gen, err := s.Fabric.Groups.Heartbeat(q.Group, q.Member)
		if err != nil {
			return nil, nil, err
		}
		return &HeartbeatResp{Generation: gen}, nil, nil
	case *CommitReq:
		err := s.Fabric.Groups.Commit(q.Group, q.Member, q.Generation, q.Topic, q.Partition, q.Offset)
		if err != nil {
			return nil, nil, err
		}
		return &EmptyResp{}, nil, nil
	case *CommittedReq:
		off := s.Fabric.Groups.Committed(q.Group, q.Topic, q.Partition)
		return &OffsetResp{Offset: off}, nil, nil
	case *ReplicaFetchReq:
		if err := s.replicaCheck(q.Topic, q.Partition, q.LeaderEpoch); err != nil {
			return nil, nil, err
		}
		wait := time.Duration(q.WaitMaxMS) * time.Millisecond
		if wait > MaxFetchWait {
			wait = MaxFetchWait
		}
		out := getEncoded()
		res, err := s.Fabric.ReplicaFetch(identity, q.Follower, q.Topic, q.Partition, q.LeaderEpoch, q.Offset, q.MaxEvents, q.MaxBytes, wait, stop, out)
		if err != nil {
			putEncoded(out)
			return nil, nil, err
		}
		resp := &ReplicaFetchResp{
			NumEvents:     out.Events,
			LeaderEpoch:   res.LeaderEpoch,
			HighWatermark: res.HighWatermark,
			LogStart:      res.LogStart,
			LogEnd:        res.LogEnd,
		}
		resp.setRuns(out.Runs)
		return resp, out, nil
	case *ReplicaAckReq:
		if err := s.replicaCheck(q.Topic, q.Partition, q.LeaderEpoch); err != nil {
			return nil, nil, err
		}
		if err := s.Fabric.ReplicaAck(identity, q.Follower, q.Topic, q.Partition, q.LeaderEpoch, q.LogEnd); err != nil {
			return nil, nil, err
		}
		return &EmptyResp{}, nil, nil
	}
	return nil, nil, fmt.Errorf("%w %T", errUnknownOp, m)
}
