// Client side of multiplexed fetch sessions: many topic-partitions
// behind one session per connection, serving the client's
// BufferedFetcher surface.
//
// The client opens ONE session per connection and adds a subscription
// per topic-partition to it. The server runs a single pump for the
// whole session under one shared byte window, so a consumer subscribed
// to 64 partitions on one connection costs the broker one goroutine,
// not 64. Pushed batches arrive tagged sessionID<<32|subID; the
// connection's reader demultiplexes them into per-sub queues, and
// consumers drain those with double-buffered decode and recycled
// frames — zero request round trips at steady state. Offsets are
// tracked so the SDK consumer's "ask for position, get events, advance
// position" loop maps onto the subscription exactly.
//
// Subscription changes ride the live session: a seek is a one-way
// remove of the old sub plus an add under a fresh sub ID (in-flight
// frames for the old position hit the unknown-sub path and are
// refunded, never misread), and pushed-metadata re-routes remove a
// moved partition's sub the moment the client adopts the new table.
package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
)

// errSessionEnded reports a server-side whole-session close without a
// carried error; the next fetch opens a fresh session.
var errSessionEnded = errors.New("wire: session ended by server")

// errSessionSubEnded reports a subscription that ended (removed by a
// re-route, or a clean server-side close); the next fetch re-subscribes.
var errSessionSubEnded = errors.New("wire: session subscription ended")

// streamKey identifies a subscription's topic-partition on one session.
type streamKey struct {
	topic     string
	partition int
}

// streamFrame is one pushed batch (or a server-side close): the decoded
// header plus the raw event payload. Frames recycle through the sub's
// free list, so a steady-state subscription allocates nothing per batch
// once warm.
type streamFrame struct {
	hdr  FetchResp
	data []byte
	err  error
}

// clientSession is one connection's multiplexed fetch session.
type clientSession struct {
	wc *wireConn
	id uint64
	// window is the granted shared byte window (server-clamped).
	window int

	// queued counts frames demultiplexed but not yet taken, across all
	// subs — bounded by the window (every pushed frame costs ≥ 1 byte
	// of it), enforced against protocol-violating peers.
	queued atomic.Int64

	mu       sync.Mutex
	err      error // session-fatal: pushed whole-session close
	subsByID map[uint32]*clientSub
	subsByTP map[streamKey]*clientSub
	nextSub  uint32
	// consumedBytes accumulates un-granted consumption; grants return
	// it at half-window granularity (see noteConsumed).
	consumedBytes int
}

// clientSub is one subscription of a session: a demux queue filled by
// the reader goroutine plus double-buffered decode/serve state. qmu
// guards the queue side (reader vs consumer); mu guards the
// decode/serve side (consumer only, serialized per partition by the
// SDK).
type clientSub struct {
	sess      *clientSession
	subID     uint32
	topic     string
	partition int

	qmu   sync.Mutex
	queue []*streamFrame
	free  []*streamFrame
	// qbytes approximates the shared window held by queued frames
	// (payload bytes), so a starved consumer can find which idle subs
	// are sitting on the window (see reclaimFor).
	qbytes int
	// adopted is the window charge of decoded-but-unserved events: added
	// when pullFrame adopts a frame, drained as events are handed out,
	// refunded whole when the sub is removed. Without it a sub that
	// decodes a batch and is then seeked away (or never polled again)
	// would hold that window forever.
	adopted int
	// qerr poisons the queue (sub removed locally); removed gates
	// late-arriving frames into the refund path.
	qerr    error
	removed bool
	// wake is signaled (cap-1, coalescing) on every push and on
	// session failure, so a parked consumer re-checks the queue.
	wake chan struct{}

	mu sync.Mutex
	// Decode state is double-buffered across pulled frames: the SDK's
	// async prefetch decodes the next frame while the application is
	// still reading the previous one, so consecutive frames land in
	// disjoint arrays, and a frame's payload (which the decoded events'
	// Key/Value alias) survives until two pulls later.
	gen        int
	frameSlots [2]*streamFrame
	evBufs     [2][]event.Event
	// evs are the current frame's decoded events; idx is how many have
	// been served.
	evs []event.Event
	idx int
	// next is the offset the consumer is expected to ask for next.
	next      int64
	hw, start int64
	err       error
}

// sessionFor returns the connection's session, opening one on first
// use (or after a session-fatal error). Opens are serialized on
// sessOpenMu, which is never held where the reader goroutine could
// need it — the reader only takes sessMu.
func (wc *wireConn) sessionFor(windowBytes, maxEvents, maxBytes int) (*clientSession, error) {
	wc.sessOpenMu.Lock()
	defer wc.sessOpenMu.Unlock()
	wc.sessMu.Lock()
	sess := wc.session
	wc.sessMu.Unlock()
	if sess != nil {
		if sess.errNow() == nil {
			return sess, nil
		}
		// Session-fatal error: discard and open a fresh one below.
		wc.sessMu.Lock()
		if wc.session == sess {
			wc.session = nil
		}
		wc.sessMu.Unlock()
	}
	wc.sessMu.Lock()
	// Session IDs share the pushed-frame correlation word with sub IDs:
	// 32 bits, nonzero.
	wc.nextSessID++
	if uint32(wc.nextSessID) == 0 {
		wc.nextSessID++
	}
	id := uint64(uint32(wc.nextSessID))
	sess = &clientSession{
		wc: wc, id: id, window: windowBytes,
		subsByID: make(map[uint32]*clientSub),
		subsByTP: make(map[streamKey]*clientSub),
	}
	// Registered before the open request goes out, so the reader can
	// route frames the moment the server starts pushing.
	wc.session = sess
	wc.sessMu.Unlock()

	req := &SessionOpenReq{ID: id, MaxEvents: maxEvents, MaxBytes: maxBytes, CreditBytes: windowBytes}
	var resp SessionOpenResp
	cl := &call{op: req.V2Op(), req: req, resp: &resp, done: make(chan struct{})}
	oerr := wc.do(cl)
	if oerr == nil {
		oerr = cl.srvErr
	}
	if oerr != nil {
		wc.sessMu.Lock()
		if wc.session == sess {
			wc.session = nil
		}
		wc.sessMu.Unlock()
		return nil, oerr
	}
	sess.mu.Lock()
	sess.window = resp.CreditBytes
	sess.mu.Unlock()
	return sess, nil
}

func (sess *clientSession) errNow() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.err
}

// failSession poisons the session (pushed whole-session close) and
// wakes every parked consumer.
func (sess *clientSession) failSession(err error) {
	sess.mu.Lock()
	if sess.err == nil {
		sess.err = err
	}
	subs := make([]*clientSub, 0, len(sess.subsByID))
	for _, sub := range sess.subsByID {
		subs = append(subs, sub)
	}
	sess.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

func (sess *clientSession) subFor(k streamKey) *clientSub {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.subsByTP[k]
}

// addSub registers a new subscription and subscribes it server-side.
// The sub is registered before the request goes out: the first pushed
// batch can be hot on the heels of the sub response.
func (sess *clientSession) addSub(topic string, partition int, offset int64) (*clientSub, error) {
	sess.mu.Lock()
	if sess.err != nil {
		err := sess.err
		sess.mu.Unlock()
		return nil, err
	}
	sess.nextSub++
	if sess.nextSub == 0 {
		sess.nextSub = 1
	}
	sub := &clientSub{
		sess: sess, subID: sess.nextSub, topic: topic, partition: partition,
		next: offset, wake: make(chan struct{}, 1),
	}
	k := streamKey{topic, partition}
	if old := sess.subsByTP[k]; old != nil {
		// Replace a stale sub (concurrent misuse or a seek race).
		delete(sess.subsByID, old.subID)
	}
	sess.subsByID[sub.subID] = sub
	sess.subsByTP[k] = sub
	sess.mu.Unlock()

	req := &SessionSubReq{
		SessionID: sess.id, SubID: sub.subID,
		Topic: topic, Partition: partition, Offset: offset,
	}
	var resp SessionSubResp
	cl := &call{op: req.V2Op(), req: req, resp: &resp, done: make(chan struct{})}
	err := sess.wc.do(cl)
	if err == nil {
		err = cl.srvErr
	}
	if err != nil {
		sess.removeSub(sub, false)
		return nil, err
	}
	sub.hw, sub.start = resp.HighWatermark, resp.StartOffset
	return sub, nil
}

// removeSub drops a subscription: unregister, poison and drain its
// queue (refunding the drained frames' window charge — the server
// already debited them), and optionally send the one-way server-side
// remove. The server answers every sub request, but with no pending
// correlation entry the response is dropped by the reader — the
// one-way convention for removes. Never takes sub.mu, so it is safe
// from the reader goroutine even while a consumer is mid-serve.
func (sess *clientSession) removeSub(sub *clientSub, sendRemove bool) {
	sess.mu.Lock()
	if sess.subsByID[sub.subID] == sub {
		delete(sess.subsByID, sub.subID)
	}
	k := streamKey{sub.topic, sub.partition}
	if sess.subsByTP[k] == sub {
		delete(sess.subsByTP, k)
	}
	sess.mu.Unlock()

	sub.qmu.Lock()
	q := sub.queue
	sub.queue = nil
	sub.qbytes = 0
	refund := sub.adopted
	sub.adopted = 0
	sub.removed = true
	if sub.qerr == nil {
		sub.qerr = errSessionSubEnded
	}
	sub.qmu.Unlock()
	select {
	case sub.wake <- struct{}{}:
	default:
	}
	for _, f := range q {
		sess.queued.Add(-1)
		if f.err == nil {
			if n, err := sessionFrameCharge(&f.hdr, f.data); err == nil {
				refund += n
			}
		}
	}
	// Refunds may race with a consumer still serving this sub's decoded
	// events (which grants normally): the server clamps grants at the
	// window cap, so over-granting is harmless where under-granting
	// would wedge the session.
	sess.noteConsumed(refund)
	if sendRemove {
		_ = sess.wc.sendOneway(&SessionSubReq{SessionID: sess.id, SubID: sub.subID, Remove: true})
	}
}

// noteConsumed accumulates consumed window and grants it back once
// half the window is outstanding — batched one-way grants, so flow
// control costs a fraction of a frame per batch.
func (sess *clientSession) noteConsumed(nbytes int) {
	if nbytes <= 0 {
		return
	}
	sess.mu.Lock()
	sess.consumedBytes += nbytes
	if 2*sess.consumedBytes < sess.window {
		sess.mu.Unlock()
		return
	}
	if sess.wc.sendOneway(&SessionCreditReq{SessionID: sess.id, CreditBytes: sess.consumedBytes}) == nil {
		sess.consumedBytes = 0
	}
	sess.mu.Unlock()
}

// flushCredit grants any accumulated consumed window immediately,
// bypassing the half-window batching. Called before a consumer blocks
// waiting for frames: when the other subscriptions' queued frames hold
// most of the shared window, the batched threshold may never trip, and
// without the flush the server would never regain the credit it needs
// to serve the one partition this consumer is actually waiting on.
func (sess *clientSession) flushCredit() {
	sess.mu.Lock()
	if n := sess.consumedBytes; n > 0 {
		if sess.wc.sendOneway(&SessionCreditReq{SessionID: sess.id, CreditBytes: n}) == nil {
			sess.consumedBytes = 0
		}
	}
	sess.mu.Unlock()
}

// reclaimFor breaks shared-window starvation for a consumer that is
// waiting on data the server is known to hold (its offset is below the
// high watermark) while the rest of the window sits in other subs'
// queued-but-unconsumed frames. The pump round-robins, so once the
// idle subs' queues have soaked up the window, a refunded byte goes
// right back to them and the waiting sub never gets served. The cure
// is eviction: remove the sub holding the most queued bytes (a full
// removal — its frames are refunded and its owner re-subscribes on its
// next fetch, exactly the seek path), until the idle hold is under half
// the window. Consumers that actually drain never queue enough to be
// picked; only abandoned subscriptions lose their place.
func (sess *clientSession) reclaimFor(waiting *clientSub) {
	for {
		sess.mu.Lock()
		if sess.err != nil {
			sess.mu.Unlock()
			return
		}
		window := sess.window
		held := 0
		var victim *clientSub
		victimBytes := 0
		for _, sub := range sess.subsByID {
			if sub == waiting {
				continue
			}
			sub.qmu.Lock()
			b := sub.qbytes + sub.adopted
			sub.qmu.Unlock()
			held += b
			if b > victimBytes {
				victim, victimBytes = sub, b
			}
		}
		sess.mu.Unlock()
		if victim == nil || victimBytes == 0 || 2*held < window {
			return
		}
		sess.removeSub(victim, true)
	}
}

// sessionFrameCharge recomputes a pushed frame's window charge from its
// undecoded payload — the refund path for frames dropped before decode.
func sessionFrameCharge(hdr *FetchResp, data []byte) (int, error) {
	evs, _, err := event.AppendUnmarshalBatch(nil, data, hdr.NumEvents)
	if err != nil {
		return 0, err
	}
	return sessionBatchSize(evs), nil
}

// --- reader-side demux ---

// handleSessionPush routes one pushed session frame (batch or close)
// from the reader goroutine into its sub's queue. A non-nil return is
// a connection-level protocol failure.
func (wc *wireConn) handleSessionPush(op, code uint8, corr uint64, body []byte) error {
	sid, subID := splitSessCorr(corr)
	wc.sessMu.Lock()
	sess := wc.session
	wc.sessMu.Unlock()
	if sess == nil || sess.id != sid {
		// A previous session's in-flight frame: consume the payload to
		// keep framing intact, then drop. Its server side is gone, so
		// there is no window to refund.
		_, err := ReadPayloadInto(wc.rd, nil)
		return err
	}
	if subID == 0 {
		// Whole-session close.
		serr := errSessionEnded
		if code != codeOK {
			if detail, _, derr := getStr(body); derr != nil {
				serr = derr
			} else {
				serr = errFromCode(code, detail)
			}
		}
		if _, err := ReadPayloadInto(wc.rd, nil); err != nil {
			return err
		}
		sess.failSession(serr)
		return nil
	}
	sess.mu.Lock()
	sub := sess.subsByID[subID]
	sess.mu.Unlock()
	if sub == nil {
		return sess.dropPushed(wc, op, code, body)
	}
	f := sub.getFrame()
	switch {
	case code != codeOK:
		// Server-side sub close carrying the typed error.
		if detail, _, derr := getStr(body); derr != nil {
			f.err = derr
		} else {
			f.err = errFromCode(code, detail)
		}
	case op == v2OpSessionClose:
		// Clean server-side sub close: retriable, the next fetch
		// re-subscribes.
		f.err = errSessionSubEnded
	default:
		if err := f.hdr.DecodeBody(body); err != nil {
			return err
		}
	}
	data, err := ReadPayloadInto(wc.rd, f.data[:0])
	if err != nil {
		return err
	}
	if data != nil {
		f.data = data
	} else {
		f.data = f.data[:0]
	}
	if sess.queued.Add(1) > int64(sess.window)+2 {
		// More un-taken frames than the window could ever have paid
		// for: the server is ignoring flow control.
		return errSession
	}
	sub.qmu.Lock()
	if sub.removed {
		sub.qmu.Unlock()
		sess.queued.Add(-1)
		// Removed while the frame was in flight: refund its charge.
		if f.err == nil {
			if n, cerr := sessionFrameCharge(&f.hdr, f.data); cerr == nil {
				sess.noteConsumed(n)
			}
		}
		return nil
	}
	sub.queue = append(sub.queue, f)
	sub.qbytes += len(f.data)
	sub.qmu.Unlock()
	select {
	case sub.wake <- struct{}{}:
	default:
	}
	return nil
}

// dropPushed consumes and refunds a pushed batch for a sub the session
// no longer knows (removed, or replaced by a seek): the server charged
// the window when it pushed, so the drop must give the charge back.
func (sess *clientSession) dropPushed(wc *wireConn, op, code uint8, body []byte) error {
	if code != codeOK || op == v2OpSessionClose {
		_, err := ReadPayloadInto(wc.rd, nil)
		return err
	}
	var hdr FetchResp
	if err := hdr.DecodeBody(body); err != nil {
		return err
	}
	data, err := ReadPayloadInto(wc.rd, nil)
	if err != nil {
		return err
	}
	if n, cerr := sessionFrameCharge(&hdr, data); cerr == nil {
		sess.noteConsumed(n)
	}
	return nil
}

// --- consumer side ---

func (s *clientSub) getFrame() *streamFrame {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		f.err = nil
		return f
	}
	return &streamFrame{}
}

func (s *clientSub) putFrame(f *streamFrame) {
	if f == nil {
		return
	}
	if cap(f.data) > maxPooledFrame {
		f.data = nil
	}
	s.qmu.Lock()
	s.free = append(s.free, f)
	s.qmu.Unlock()
}

// takeFrame dequeues the next pushed frame, or reports the queue's
// poison error when it is empty and the sub was removed.
func (s *clientSub) takeFrame() (*streamFrame, error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.queue) > 0 {
		f := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.qbytes -= len(f.data)
		s.sess.queued.Add(-1)
		return f, nil
	}
	return nil, s.qerr
}

// fetchSession serves one FetchBuffered call from the connection's
// multiplexed session.
func (c *Client) fetchSession(wc *wireConn, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration) (broker.FetchResult, error) {
	// The session's push batch bounds are the server's defaults, not this
	// call's limits: one session serves every later fetch on the
	// connection, and the per-call maxEvents cap is applied client-side
	// when decoded events are handed out. Pinning batches to the first
	// caller's (possibly tiny) maxEvents would multiply the frame count —
	// and the per-frame cost — for everyone else.
	sess, err := wc.sessionFor(c.opts.StreamWindowBytes, 0, 0)
	if err != nil {
		return broker.FetchResult{}, err
	}
	sub := sess.subFor(streamKey{topic, partition})
	if sub != nil {
		sub.mu.Lock()
		if sub.err != nil {
			serr := sub.err
			sub.mu.Unlock()
			sess.removeSub(sub, false)
			if errors.Is(serr, errSessionSubEnded) {
				// Clean end: re-subscribe below instead of surfacing.
				sub = nil
			} else {
				return broker.FetchResult{}, serr
			}
		} else if sub.next != offset {
			// Seek or rebalance: remove and re-subscribe at the new
			// offset under a fresh sub ID, so in-flight frames for the
			// old position can never be misread as the new one.
			sub.mu.Unlock()
			sess.removeSub(sub, true)
			sub = nil
		} else {
			defer sub.mu.Unlock()
		}
	}
	if sub == nil {
		var aerr error
		sub, aerr = sess.addSub(topic, partition, offset)
		if aerr != nil {
			return broker.FetchResult{}, aerr
		}
		sub.mu.Lock()
		defer sub.mu.Unlock()
	}

	if sub.idx >= len(sub.evs) {
		if perr := sub.pullFrame(wait); perr != nil {
			sess.removeSub(sub, false)
			if errors.Is(perr, errSessionSubEnded) {
				return broker.FetchResult{Events: nil, HighWatermark: sub.hw, StartOffset: sub.start}, nil
			}
			return broker.FetchResult{}, perr
		}
	}
	if sub.idx >= len(sub.evs) {
		// Nothing pushed (yet): an empty poll, exactly like an empty
		// request/response fetch.
		return broker.FetchResult{Events: nil, HighWatermark: sub.hw, StartOffset: sub.start}, nil
	}
	n := len(sub.evs) - sub.idx
	if maxEvents > 0 && n > maxEvents {
		n = maxEvents
	}
	out := sub.evs[sub.idx : sub.idx+n]
	sub.idx += n
	sub.next = out[n-1].Offset + 1
	// Grant the shared window back in the server's own unit: payload
	// bytes plus one per event (sessionBatchSize). The served slice
	// leaves the adopted ledger (floored: a concurrent removal may have
	// refunded it already, and the server clamps over-grants anyway).
	grant := sessionBatchSize(out)
	sub.qmu.Lock()
	if sub.adopted -= grant; sub.adopted < 0 {
		sub.adopted = 0
	}
	sub.qmu.Unlock()
	sess.noteConsumed(grant)
	return broker.FetchResult{Events: out, HighWatermark: sub.hw, StartOffset: sub.start}, nil
}

// pullFrame adopts the next pushed frame into the serve position,
// blocking up to wait when the queue is empty. Returning nil with an
// unchanged s.idx/s.evs means no data arrived. Callers hold s.mu.
func (s *clientSub) pullFrame(wait time.Duration) error {
	f, qerr := s.takeFrame()
	if f == nil && qerr == nil {
		if err := s.sess.errNow(); err != nil {
			return err
		}
		if err := s.sess.wc.errNow(); err != nil {
			return err
		}
		if wait <= 0 {
			return nil
		}
		// About to park while the server holds data for this sub: first
		// evict idle subs sitting on the shared window (they would soak
		// up any credit the server regains), then return any outstanding
		// window, so the wait is for the server's push, never for a
		// grant that the batching threshold would otherwise withhold.
		if s.next < s.hw {
			s.sess.reclaimFor(s)
		}
		s.sess.flushCredit()
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for f == nil {
			select {
			case <-s.wake:
			case <-s.sess.wc.done:
				return s.sess.wc.errNow()
			case <-timer.C:
				return nil
			}
			f, qerr = s.takeFrame()
			if f == nil {
				if qerr != nil {
					break
				}
				if err := s.sess.errNow(); err != nil {
					return err
				}
			}
		}
	}
	if f == nil {
		s.err = qerr
		return qerr
	}
	if f.err != nil {
		err := f.err
		s.putFrame(f)
		s.err = err
		return err
	}
	g := s.gen ^ 1
	evs, pos, err := event.AppendUnmarshalBatch(s.evBufs[g][:0], f.data, f.hdr.NumEvents)
	if err != nil {
		s.putFrame(f)
		return err
	}
	if pos != len(f.data) {
		s.putFrame(f)
		return errShortMsg
	}
	f.hdr.Stamp(evs, s.topic, s.partition)
	// The decoded batch's window charge moves from the queue ledger to
	// the adopted ledger; if the sub was removed while we decoded (its
	// queue was already drained and refunded, but this frame had left
	// the queue), refund it directly instead.
	charge := sessionBatchSize(evs)
	s.qmu.Lock()
	removed := s.removed
	if !removed {
		s.adopted += charge
	}
	s.qmu.Unlock()
	if removed {
		s.sess.noteConsumed(charge)
	}
	// Recycle the frame from two pulls ago — the previous frame's data
	// is still backing events the application may be processing.
	s.putFrame(s.frameSlots[g])
	s.frameSlots[g] = f
	s.evBufs[g] = evs
	s.gen = g
	s.evs = evs
	s.idx = 0
	s.hw, s.start = f.hdr.HighWatermark, f.hdr.StartOffset
	return nil
}
