// Multiplexed fetch sessions: credit-based server push at connection
// scale, the one consume path the wire client uses.
//
// Request/response fetch costs one round trip per batch. A session
// inverts the flow: the server pushes batches as data arrives, and at
// the "millions of users" scale the fabric targets, serving cost must
// scale with connections, not with partitions. One session per
// connection subscribes to many topic-partitions (OpSessionSub adds,
// removes and seeks without reopening anything), and the server runs
// ONE pump goroutine per session that round-robins the ready partitions
// under a SINGLE shared byte-credit window. When every subscribed partition is
// dry the pump parks once, on a multi-log "any of these appended"
// waiter built from eventlog.NotifyAppend callbacks — not one blocked
// goroutine per partition. Pushed batches reuse the response framing
// (OpSessionBatch, correlated by sessionID<<32|subID); the client
// returns consumed window with one-way OpSessionCredit grants.
//
// Credits rather than TCP backpressure because the transport is shared:
// every session push and the request/response traffic pipelined beside
// it multiplex one TCP socket, so a reader that stopped consuming would
// otherwise stall them all — the reasoning behind HTTP/2 and gRPC
// stream-level flow control and Kafka's KIP-227 fetch sessions. The
// shared window is denominated in bytes (payload size plus one per
// event, so zero-payload events still consume window and a stalled
// reader can never force unbounded frames), because a single window in
// events would let one large-record partition starve the rest: bytes
// are the unit pushed frames actually occupy.
//
// Per-sub errors (offset out of range, leadership moved, ACL change)
// are pushed as OpSessionClose frames carrying the sub's corr and the
// typed error — the session and its other subs keep flowing. A
// whole-session close carries subID 0.
package wire

import (
	"fmt"
	"sync"

	"repro/internal/auth"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// maxConnSessions bounds open sessions per connection. One is the
// intended number (the whole point is one session fans out to many
// partitions); a few spares allow seamless handover during rebalances.
const maxConnSessions = 4

// maxSessionSubs bounds subscriptions per session: the fan-out a single
// pump serves must stay a server-chosen limit, not an attacker-chosen
// one.
const maxSessionSubs = 4096

// defaultSessionWindow is the shared byte window granted when the
// client asks for none.
const defaultSessionWindow = 1 << 20

// maxSessionWindow caps the shared byte window server-side. The window
// bounds what a stalled reader can leave pushed but unconsumed — in
// socket buffers and the client's queues; the server's own write buffer
// is bounded separately, by the pump's wait on maxPooledFrame — so it
// must be a server-enforced limit, not an attacker-chosen value.
const maxSessionWindow = 16 << 20

// errSession reports session-protocol misuse (duplicate or unknown
// IDs).
var errSession = fmt.Errorf("wire: session protocol error")

// sessCorr packs a session batch's correlation value: the session ID in
// the high 32 bits, the sub ID in the low 32.
func sessCorr(sessionID uint64, subID uint32) uint64 {
	return sessionID<<32 | uint64(subID)
}

// splitSessCorr is the inverse of sessCorr.
func splitSessCorr(corr uint64) (sessionID uint64, subID uint32) {
	return corr >> 32, uint32(corr)
}

// sessionBatchSize is the flow-control size of a session batch: the
// events' payload bytes plus one per event. The +1 keeps every batch
// nonzero-cost, so a window of W bytes bounds the number of un-granted
// pushed frames at W even for zero-payload events. Computed identically
// on both sides of the session so grants balance debits.
func sessionBatchSize(evs []event.Event) int {
	n := len(evs)
	for i := range evs {
		n += evs[i].Size()
	}
	return n
}

// --- session messages ---

// SessionOpenReq opens a multiplexed fetch session (OpSessionOpen). The
// client picks the connection-unique ID (1..2^32-1: the ID shares the
// pushed frames' correlation word with the sub ID).
type SessionOpenReq struct {
	ID uint64
	// MaxEvents / MaxBytes bound one pushed batch (fetch semantics).
	MaxEvents int
	MaxBytes  int
	// CreditBytes is the session's shared flow-control window (see
	// sessionBatchSize). Zero asks for the server default.
	CreditBytes int
}

func (*SessionOpenReq) V2Op() uint8 { return v2OpSessionOpen }

func (m *SessionOpenReq) AppendBody(buf []byte) []byte {
	buf = appendUint(buf, m.ID)
	buf = appendInt(buf, int64(m.MaxEvents))
	buf = appendInt(buf, int64(m.MaxBytes))
	return appendInt(buf, int64(m.CreditBytes))
}

func (m *SessionOpenReq) DecodeBody(b []byte) error {
	var err error
	var v int64
	if m.ID, b, err = getUint(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxEvents = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxBytes = int(v)
	if v, _, err = getInt(b); err != nil {
		return err
	}
	m.CreditBytes = int(v)
	return nil
}

// SessionOpenResp acknowledges a session open with the granted window
// (the server clamps hostile or oversized requests).
type SessionOpenResp struct {
	CreditBytes int
}

func (m *SessionOpenResp) AppendBody(buf []byte) []byte {
	return appendInt(buf, int64(m.CreditBytes))
}

func (m *SessionOpenResp) DecodeBody(b []byte) error {
	v, _, err := getInt(b)
	m.CreditBytes = int(v)
	return err
}

// SessionSubReq adds (or, with Remove set, drops) one topic-partition
// subscription on a session (OpSessionSub). Seeks are a remove of the
// old sub followed by an add under a fresh sub ID, so in-flight frames
// for the old position can never be mistaken for the new one. Sub IDs
// are session-unique and nonzero (0 marks a whole-session close frame).
type SessionSubReq struct {
	SessionID uint64
	SubID     uint32
	Topic     string
	Partition int
	// Offset is the first offset the server will push (adds only).
	Offset int64
	Remove bool
}

func (*SessionSubReq) V2Op() uint8 { return v2OpSessionSub }

func (m *SessionSubReq) AppendBody(buf []byte) []byte {
	buf = appendUint(buf, m.SessionID)
	buf = appendUint(buf, uint64(m.SubID))
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, m.Offset)
	rm := byte(0)
	if m.Remove {
		rm = 1
	}
	return append(buf, rm)
}

func (m *SessionSubReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *SessionSubReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	var u uint64
	if m.SessionID, b, err = getUint(b); err != nil {
		return err
	}
	if u, b, err = getUint(b); err != nil {
		return err
	}
	m.SubID = uint32(u)
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if m.Offset, b, err = getInt(b); err != nil {
		return err
	}
	if len(b) < 1 {
		return errShortMsg
	}
	m.Remove = b[0] != 0
	return nil
}

// SessionSubResp acknowledges a subscription add with the partition's
// positions at subscribe time.
type SessionSubResp struct {
	HighWatermark int64
	StartOffset   int64
}

func (m *SessionSubResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, m.HighWatermark)
	return appendInt(buf, m.StartOffset)
}

func (m *SessionSubResp) DecodeBody(b []byte) error {
	var err error
	if m.HighWatermark, b, err = getInt(b); err != nil {
		return err
	}
	m.StartOffset, _, err = getInt(b)
	return err
}

// SessionCreditReq returns consumed window to a session
// (OpSessionCredit). One-way: the server never answers it.
type SessionCreditReq struct {
	SessionID   uint64
	CreditBytes int
}

func (*SessionCreditReq) V2Op() uint8 { return v2OpSessionCredit }

func (m *SessionCreditReq) AppendBody(buf []byte) []byte {
	buf = appendUint(buf, m.SessionID)
	return appendInt(buf, int64(m.CreditBytes))
}

func (m *SessionCreditReq) DecodeBody(b []byte) error {
	var err error
	var v int64
	if m.SessionID, b, err = getUint(b); err != nil {
		return err
	}
	v, _, err = getInt(b)
	m.CreditBytes = int(v)
	return err
}

// SessionCloseReq closes a session from the client side
// (OpSessionClose). One-way: the pump just stops.
type SessionCloseReq struct {
	SessionID uint64
}

func (*SessionCloseReq) V2Op() uint8 { return v2OpSessionClose }
func (m *SessionCloseReq) AppendBody(buf []byte) []byte {
	return appendUint(buf, m.SessionID)
}
func (m *SessionCloseReq) DecodeBody(b []byte) error {
	var err error
	m.SessionID, _, err = getUint(b)
	return err
}

// --- server-side session state ---

// connSessions is one connection's session registry: the read loop
// opens, subscribes, credits and closes sessions; each session's single
// pump goroutine pushes batches through the connection's respWriter.
type connSessions struct {
	srv *Server
	w   *respWriter

	mu sync.Mutex
	m  map[uint64]*serverSession
	wg sync.WaitGroup
}

// serverSession is one open session: its fixed parameters, the shared
// byte-credit window, and the subscription set the pump round-robins.
type serverSession struct {
	id        uint64
	identity  string
	maxEvents int
	maxBytes  int
	window    int // granted window cap (grants clamp here)

	mu   sync.Mutex
	cond *sync.Cond
	// creditBytes is the remaining shared window. It may dip below zero
	// when the first event of a batch alone exceeds it (ReadBudget
	// semantics); the pump then parks until grants bring it positive.
	creditBytes int
	subs        map[uint32]*srvSub
	// order is the round-robin ring of sub IDs; rr indexes the next
	// candidate so no ready partition is starved by a chatty one.
	order []uint32
	rr    int
	// ready counts subs believed to have data; the pump parks when zero.
	ready  int
	closed bool
	stop   chan struct{} // closed with the session; fences late wakeups

	// dst is the pump's reusable fetch buffer (pump-only).
	dst []event.Event
}

// srvSub is one subscription of a session. All fields are guarded by
// the session mutex except topic/partition/log/subID (immutable after
// registration).
type srvSub struct {
	subID     uint32
	topic     string
	partition int
	log       *eventlog.Log

	// next is the next offset to push.
	next int64
	// ready marks the sub as (believed) fetchable; cleared when a fetch
	// comes back empty, restored by the log's append callback.
	ready bool
	// armed is set while an append callback is registered on the log;
	// notifyH is its cancellation handle.
	armed   bool
	notifyH uint64
	removed bool
}

func newConnSessions(srv *Server, w *respWriter) *connSessions {
	return &connSessions{srv: srv, w: w, m: make(map[uint64]*serverSession)}
}

// open validates and registers a session and starts its pump. Called
// inline from the read loop.
func (ss *connSessions) open(q *SessionOpenReq, identity string, authed bool) (*SessionOpenResp, error) {
	if !authed {
		return nil, fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
	}
	if q.ID == 0 || q.ID >= 1<<32 {
		return nil, fmt.Errorf("%w: session id %d out of range", errSession, q.ID)
	}
	sess := &serverSession{
		id: q.ID, identity: identity,
		maxEvents: q.MaxEvents, maxBytes: q.MaxBytes,
		window: q.CreditBytes,
		subs:   make(map[uint32]*srvSub),
		stop:   make(chan struct{}),
	}
	if sess.maxEvents <= 0 {
		sess.maxEvents = 512
	}
	if sess.window <= 0 {
		sess.window = defaultSessionWindow
	}
	if sess.window > maxSessionWindow {
		sess.window = maxSessionWindow
	}
	sess.creditBytes = sess.window
	sess.cond = sync.NewCond(&sess.mu)
	ss.mu.Lock()
	if _, dup := ss.m[q.ID]; dup {
		ss.mu.Unlock()
		return nil, fmt.Errorf("%w: duplicate session id %d", errSession, q.ID)
	}
	if len(ss.m) >= maxConnSessions {
		ss.mu.Unlock()
		return nil, fmt.Errorf("%w: too many open sessions", errSession)
	}
	ss.m[q.ID] = sess
	ss.wg.Add(1)
	ss.mu.Unlock()
	ss.srv.met().sessionsOpen.Add(1)
	go ss.pump(sess)
	return &SessionOpenResp{CreditBytes: sess.window}, nil
}

// sub handles one OpSessionSub: registers (or removes) a subscription
// and wakes the pump. Called inline from the read loop.
func (ss *connSessions) sub(q *SessionSubReq, authed bool) (*SessionSubResp, error) {
	ss.mu.Lock()
	sess := ss.m[q.SessionID]
	ss.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("%w: unknown session %d", errSession, q.SessionID)
	}
	if q.Remove {
		sess.removeSub(q.SubID)
		return &SessionSubResp{}, nil
	}
	if !authed {
		return nil, fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
	}
	if q.SubID == 0 {
		return nil, fmt.Errorf("%w: sub id 0 is reserved", errSession)
	}
	if sess.identity != "" {
		if err := ss.srv.Fabric.ACL.Check(q.Topic, sess.identity, auth.PermRead); err != nil {
			return nil, err
		}
	}
	if err := ss.srv.leaderCheck(q.Topic, q.Partition); err != nil {
		return nil, err
	}
	log, err := ss.srv.Fabric.LeaderLog(q.Topic, q.Partition)
	if err != nil {
		return nil, err
	}
	start, end := log.StartOffset(), log.EndOffset()
	if q.Offset < start || q.Offset > end {
		return nil, fmt.Errorf("%w: session sub at %d not in [%d,%d]", ErrOffsetOutOfRange, q.Offset, start, end)
	}
	sub := &srvSub{
		subID: q.SubID, topic: q.Topic, partition: q.Partition,
		log: log, next: q.Offset, ready: true,
	}
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: session %d closed", errSession, q.SessionID)
	}
	if _, dup := sess.subs[q.SubID]; dup {
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: duplicate sub id %d", errSession, q.SubID)
	}
	if len(sess.subs) >= maxSessionSubs {
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: too many subscriptions", errSession)
	}
	sess.subs[q.SubID] = sub
	sess.order = append(sess.order, q.SubID)
	sess.ready++
	sess.cond.Signal()
	sess.mu.Unlock()
	return &SessionSubResp{HighWatermark: end, StartOffset: start}, nil
}

// removeSub drops one subscription, cancelling any armed append
// callback. Safe against unknown or already-removed IDs.
func (sess *serverSession) removeSub(subID uint32) {
	sess.mu.Lock()
	sub := sess.subs[subID]
	if sub == nil {
		sess.mu.Unlock()
		return
	}
	delete(sess.subs, subID)
	for i, id := range sess.order {
		if id == subID {
			sess.order = append(sess.order[:i], sess.order[i+1:]...)
			if sess.rr > i {
				sess.rr--
			}
			break
		}
	}
	if sub.ready {
		sess.ready--
	}
	sub.removed = true
	armed, h := sub.armed, sub.notifyH
	sub.armed = false
	sess.mu.Unlock()
	if armed {
		sub.log.CancelNotify(h)
	}
}

// credit adds a client grant to a session's shared window. Grants for
// unknown IDs are dropped: the session may have closed while the grant
// was in flight, which is normal, not an error.
func (ss *connSessions) credit(id uint64, nbytes int) {
	ss.mu.Lock()
	sess := ss.m[id]
	ss.mu.Unlock()
	if sess == nil || nbytes <= 0 {
		return
	}
	sess.mu.Lock()
	sess.creditBytes += nbytes
	if sess.creditBytes > sess.window {
		sess.creditBytes = sess.window
	}
	sess.cond.Signal()
	sess.mu.Unlock()
}

// closeSession tears one session down (client-initiated or pump exit).
func (ss *connSessions) closeSession(id uint64) {
	ss.mu.Lock()
	sess := ss.m[id]
	delete(ss.m, id)
	ss.mu.Unlock()
	if sess == nil {
		return
	}
	sess.mu.Lock()
	if !sess.closed {
		sess.closed = true
		close(sess.stop)
		sess.cond.Broadcast()
	}
	var cancels []*srvSub
	for _, sub := range sess.subs {
		sub.removed = true
		if sub.armed {
			sub.armed = false
			cancels = append(cancels, sub)
		}
	}
	sess.subs = make(map[uint32]*srvSub)
	sess.order = nil
	sess.ready = 0
	sess.mu.Unlock()
	for _, sub := range cancels {
		sub.log.CancelNotify(sub.notifyH)
	}
	ss.w.wakePending() // a pump parked on a stalled reader sees stop
	ss.srv.met().sessionsOpen.Add(-1)
}

// closeAll tears every session down (connection teardown) and waits for
// the pumps to exit, so serveConn never leaks a pump goroutine.
func (ss *connSessions) closeAll() {
	ss.mu.Lock()
	ids := make([]uint64, 0, len(ss.m))
	for id := range ss.m {
		ids = append(ids, id)
	}
	ss.mu.Unlock()
	for _, id := range ids {
		ss.closeSession(id)
	}
	ss.wg.Wait()
}

// nextReadyLocked picks the next ready sub round-robin, advancing the
// ring position. Callers hold sess.mu and have checked sess.ready > 0.
func (sess *serverSession) nextReadyLocked() *srvSub {
	n := len(sess.order)
	for i := 0; i < n; i++ {
		if sess.rr >= n {
			sess.rr = 0
		}
		sub := sess.subs[sess.order[sess.rr]]
		sess.rr++
		if sub != nil && sub.ready {
			return sub
		}
	}
	return nil
}

// pump is a session's single push loop: park until the shared window
// has credit AND some sub is ready, pick the next ready sub
// round-robin, fetch one batch (never blocking — a dry sub un-readies
// itself and arms the log's append callback instead), push it, charge
// the window, repeat. One goroutine regardless of how many partitions
// the session subscribes.
//
// Before each fetch the pump also waits while maxPooledFrame bytes are
// pending in the connection's write buffer. The window bounds what the
// client has not yet consumed, but up to all of it could otherwise pile
// up in that buffer behind a slow socket; with the wait, the server
// holds at most the bound plus one frame per pump, and the writer can
// reuse its buffers instead of regrowing them every flush.
func (ss *connSessions) pump(sess *serverSession) {
	defer ss.wg.Done()
	met := ss.srv.met()
	for {
		if !ss.w.waitPending(maxPooledFrame, sess.stop) {
			ss.closeSession(sess.id)
			return
		}
		sess.mu.Lock()
		for !sess.closed && (sess.creditBytes <= 0 || sess.ready == 0) {
			if sess.creditBytes <= 0 && sess.ready > 0 {
				// Data is waiting but the client hasn't granted window:
				// genuine backpressure, not idleness.
				met.creditStalls.Inc()
			}
			met.pumpParks.Inc()
			sess.cond.Wait()
		}
		if sess.closed {
			sess.mu.Unlock()
			return
		}
		sub := sess.nextReadyLocked()
		if sub == nil {
			// ready count out of sync with the ring (races with removes);
			// resync and park again.
			sess.ready = 0
			for _, s2 := range sess.subs {
				if s2.ready {
					sess.ready++
				}
			}
			sess.mu.Unlock()
			continue
		}
		creditBytes := sess.creditBytes
		next := sub.next
		sess.mu.Unlock()

		maxBytes := sess.maxBytes
		if maxBytes <= 0 || creditBytes < maxBytes {
			// The shared window bounds one push too: never fetch more
			// than it has room for (the first event may still exceed it —
			// ReadBudget semantics — taking the window negative).
			maxBytes = creditBytes
		}
		res, err := ss.srv.Fabric.FetchWaitInto(
			sess.identity, sub.topic, sub.partition, next,
			sess.maxEvents, maxBytes, 0, nil, sess.dst[:0])
		if err != nil {
			// Per-sub failure: push the typed error as this sub's close
			// frame and drop the sub; the session and its other subs keep
			// flowing.
			_ = ss.w.writeV2(v2OpSessionClose, sessCorr(sess.id, sub.subID), nil, err, nil)
			sess.removeSub(sub.subID)
			continue
		}
		if cap(res.Events) > cap(sess.dst) {
			sess.dst = res.Events
		}
		if len(res.Events) == 0 {
			// Dry: un-ready the sub and arm the log's append callback to
			// restore readiness. The callback runs on the appender's
			// goroutine and only flips state under sess.mu — cheap and
			// non-blocking by the NotifyAppend contract.
			sess.mu.Lock()
			if !sub.removed && sub.ready && sub.next == next {
				h, registered := sub.log.NotifyAppend(next, func() {
					sess.mu.Lock()
					if !sub.removed && !sub.ready {
						sub.ready = true
						sess.ready++
						sess.cond.Signal()
					}
					sub.armed = false
					sess.mu.Unlock()
				})
				if registered {
					sub.ready = false
					sess.ready--
					sub.armed = true
					sub.notifyH = h
				}
				// else: data appeared (or the log closed) between the
				// empty fetch and the registration — stay ready and let
				// the next fetch observe it.
			}
			sess.mu.Unlock()
			continue
		}
		resp := &FetchResp{
			NumEvents:     len(res.Events),
			HighWatermark: res.HighWatermark,
			StartOffset:   res.StartOffset,
		}
		resp.SetOffsets(res.Events)
		// Charge the window before the batch is queued: the client may
		// consume it and grant it back before this goroutine runs again,
		// and a grant applied ahead of its charge is clamped at the
		// window cap and lost, shrinking the window until the pump wedges.
		sess.mu.Lock()
		if !sub.removed {
			sub.next = res.Events[len(res.Events)-1].Offset + 1
		}
		sess.creditBytes -= sessionBatchSize(res.Events)
		sess.mu.Unlock()
		if ss.w.writeV2(v2OpSessionBatch, sessCorr(sess.id, sub.subID), resp, nil, res.Events) != nil {
			ss.closeSession(sess.id)
			return
		}
		met.sessionBatch.Observe(int64(len(res.Events)))
	}
}
