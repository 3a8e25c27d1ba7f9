package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

// startSessServer is startServer exposing the *Server, so session tests
// can read its session instrumentation.
func startSessServer(t *testing.T) (*broker.Fabric, *Server, string, func()) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return f, s, addr, s.Close
}

// sessionTopic provisions a topic and pre-produces n events into every
// partition, valued "p<part>-<i>" so consumers can verify routing.
func sessionTopic(t *testing.T, f *broker.Fabric, topic string, parts, n int) {
	t.Helper()
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		evs := make([]event.Event, 0, 64)
		for i := 0; i < n; i++ {
			evs = append(evs, event.Event{Value: []byte(fmt.Sprintf("p%d-%d", p, i))})
			if len(evs) == 64 || i == n-1 {
				if _, err := f.Produce("", topic, p, evs, broker.AcksLeader); err != nil {
					t.Fatal(err)
				}
				evs = evs[:0]
			}
		}
	}
}

// sessWC returns the wireConn serving a topic-partition (white-box).
func (c *Client) sessWC(topic string, partition int) *wireConn {
	addr := c.dataAddr(topic, partition)
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.eps[addr]
	if ep == nil {
		return nil
	}
	return ep.slots[c.slotFor(topic, partition)]
}

// sessSub returns the client-side session subscription serving a
// topic-partition, nil if none is live (white-box).
func (c *Client) sessSub(topic string, partition int) *clientSub {
	wc := c.sessWC(topic, partition)
	if wc == nil {
		return nil
	}
	wc.sessMu.Lock()
	sess := wc.session
	wc.sessMu.Unlock()
	if sess == nil {
		return nil
	}
	return sess.subFor(streamKey{topic, partition})
}

// TestSessionFetchMultiplexesPartitions is the session path's
// correctness anchor: one connection consuming many partitions rides
// exactly ONE fetch session (one server pump goroutine) with one
// subscription per partition, and every event still arrives in order
// with its value intact.
func TestSessionFetchMultiplexesPartitions(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const parts, perPart = 8, 300
	sessionTopic(t, f, "ms", parts, perPart)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf broker.FetchBuffer
	offs := make([]int64, parts)
	got := 0
	deadline := time.Now().Add(15 * time.Second)
	for got < parts*perPart && time.Now().Before(deadline) {
		for p := 0; p < parts; p++ {
			if offs[p] >= perPart {
				continue
			}
			res, err := c.FetchBufferedWait("", "ms", p, offs[p], 50, 1<<20, 50*time.Millisecond, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range res.Events {
				if ev.Offset != offs[p] {
					t.Fatalf("partition %d: offset %d, want %d", p, ev.Offset, offs[p])
				}
				if want := fmt.Sprintf("p%d-%d", p, offs[p]); string(ev.Value) != want {
					t.Fatalf("partition %d event %d: value %q, want %q", p, offs[p], ev.Value, want)
				}
				offs[p]++
				got++
			}
		}
	}
	if got != parts*perPart {
		t.Fatalf("consumed %d of %d", got, parts*perPart)
	}
	// One session: the whole fan-in shares a single pump.
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open, want exactly 1", n)
	}
	for p := 0; p < parts; p++ {
		if c.sessSub("ms", p) == nil {
			t.Fatalf("partition %d not served by a session subscription", p)
		}
	}

	// Late data on a drained sub is pushed without a new subscription:
	// the armed append callback re-readies it inside the same session.
	if _, err := f.Produce("", "ms", 3, []event.Event{{Value: []byte("late")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchBufferedWait("", "ms", 3, offs[3], 10, 1<<20, 5*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || string(res.Events[0].Value) != "late" {
		t.Fatalf("late event not pushed through the session: %v", res.Events)
	}
}

// TestSessionSeekResubscribes pins the seek path: a fetch at an offset
// other than the expected next one replaces the subscription (new sub
// ID, stale in-flight frames refunded) and serves the requested offset
// exactly — within the same session. Typed errors from a refused
// subscription surface through the push path just as they do from a
// failed request/response fetch.
func TestSessionSeekResubscribes(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	sessionTopic(t, f, "sk", 1, 500)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf broker.FetchBuffer
	var off int64
	for off < 200 {
		res, err := c.FetchBufferedWait("", "sk", 0, off, 64, 1<<20, time.Second, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("no events at %d", off)
		}
		off = res.Events[len(res.Events)-1].Offset + 1
	}
	sub1 := c.sessSub("sk", 0)
	if sub1 == nil {
		t.Fatal("no session subscription before seek")
	}
	// Rewind: the session must resubscribe, not replay from 200.
	res, err := c.FetchBufferedWait("", "sk", 0, 10, 5, 1<<20, time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 || res.Events[0].Offset != 10 || string(res.Events[0].Value) != "p0-10" {
		t.Fatalf("seek to 10 served %v", res.Events)
	}
	sub2 := c.sessSub("sk", 0)
	if sub2 == nil || sub2 == sub1 {
		t.Fatal("seek did not replace the session subscription")
	}
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open after seek, want 1", n)
	}
}

// TestStreamSeekReopens seeks a partition's push stream backwards after a
// single fetch and checks that the subscription reopens at the new offset,
// and that typed errors still surface through the push path.
func TestStreamSeekReopens(t *testing.T) {
	f, _, addr, stop := startSessServer(t)
	defer stop()
	sessionTopic(t, f, "sk", 1, 300)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	if _, err := c.FetchBuffered("", "sk", 0, 0, 100, 1<<20, &buf); err != nil {
		t.Fatal(err)
	}
	first := c.sessSub("sk", 0)
	// Seek back to 7: the subscription must reopen there.
	res, err := c.FetchBufferedWait("", "sk", 0, 7, 10, 1<<20, 2*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 || res.Events[0].Offset != 7 {
		t.Fatalf("seek fetch returned %d events starting %v, want offset 7", len(res.Events), res.Events)
	}
	second := c.sessSub("sk", 0)
	if second == nil || second == first {
		t.Fatal("seek did not reopen the stream subscription")
	}
	if _, err := c.FetchBuffered("", "sk", 0, 9999, 10, 1<<20, &buf); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("out-of-range subscribe returned %v", err)
	}
	if _, err := c.FetchBuffered("", "nope", 0, 0, 10, 1<<20, &buf); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown-topic subscribe returned %v", err)
	}
}

// TestSessionCreditBoundsServerPush pins shared-window flow control: a
// consumer that stops consuming stalls the pump (genuine backpressure,
// counted as credit stalls) instead of letting the server buffer
// unboundedly — and consumption resumes exactly where it left off.
func TestSessionCreditBoundsServerPush(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const total = 3000
	sessionTopic(t, f, "scb", 1, total)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1, StreamWindowBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf broker.FetchBuffer
	// One small fetch opens the session and subscription; the server
	// then pushes until the 2 KiB window is spent and must park.
	res, err := c.FetchBufferedWait("", "scb", 0, 0, 10, 1<<20, time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	deadline := time.Now().Add(5 * time.Second)
	for s.met().creditStalls.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.met().creditStalls.Value() == 0 {
		t.Fatal("pump never stalled on credit with a full window of unconsumed data")
	}
	// The client-side demux queue is bounded by the window, not by the
	// 3000 events the log holds.
	sub := c.sessSub("scb", 0)
	if sub == nil {
		t.Fatal("no session subscription")
	}
	if q := sub.sess.queued.Load(); q > 2048+2 {
		t.Fatalf("client queued %d window-bytes of frames, want ≤ window", q)
	}

	// Resume: every remaining event arrives, in order, no gaps or dups.
	deadline = time.Now().Add(15 * time.Second)
	for off < total {
		if time.Now().After(deadline) {
			t.Fatalf("resumed consumption stalled at %d of %d: session window wedged", off, total)
		}
		res, err := c.FetchBufferedWait("", "scb", 0, off, 100, 1<<20, 5*time.Second, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d", ev.Offset, off)
			}
			off++
		}
	}
	if s.met().pumpParks.Value() == 0 {
		t.Fatal("pump park counter never moved")
	}
}

// TestServerMetricsExposeSessionCounters pins the observability
// satellite: the server's registry snapshot names every session
// counter so operators see them without code spelunking.
func TestServerMetricsExposeSessionCounters(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	sessionTopic(t, f, "mx", 1, 10)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	if _, err := c.FetchBufferedWait("", "mx", 0, 0, 10, 1<<20, time.Second, &buf); err != nil {
		t.Fatal(err)
	}
	snap := strings.Join(s.Metrics().Snapshot(), "\n")
	for _, name := range []string{
		"wire_sessions_open",
		"wire_session_pump_parks", "wire_session_credit_stalls",
		"wire_meta_pushes",
	} {
		if !strings.Contains(snap, name) {
			t.Fatalf("metric %q missing from snapshot:\n%s", name, snap)
		}
	}
	if s.met().sessionsOpen.Value() != 1 {
		t.Fatalf("sessions gauge = %d, want 1", s.met().sessionsOpen.Value())
	}
}

// waitGoroutines polls until the process goroutine count returns to at
// most want, failing the test with a goroutine dump otherwise.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d, want ≤ %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// TestSessionGoroutineReleaseOnClose is the leak gate for the graceful
// path: N clients × P partitions of session consumption, then client
// close — server pumps, read loops, and client goroutines all return
// to the pre-dial baseline.
func TestSessionGoroutineReleaseOnClose(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const clients, parts = 4, 16
	sessionTopic(t, f, "lk", parts, 5)
	base := runtime.NumGoroutine()

	var cs []*Client
	var buf broker.FetchBuffer
	for i := 0; i < clients; i++ {
		c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		for p := 0; p < parts; p++ {
			if _, err := c.FetchBufferedWait("", "lk", p, 0, 5, 1<<20, time.Second, &buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := s.met().sessionsOpen.Value(); n != clients {
		t.Fatalf("%d sessions open, want %d", n, clients)
	}
	for _, c := range cs {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
	if n := s.met().sessionsOpen.Value(); n != 0 {
		t.Fatalf("%d sessions still open after close", n)
	}
}

// TestSessionGoroutineReleaseOnConnDrop is the leak gate for the
// ungraceful path: the TCP connection dies mid-session with no close
// frames — the server read loop's exit must still tear down every pump
// before the connection handler returns.
func TestSessionGoroutineReleaseOnConnDrop(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const parts = 16
	sessionTopic(t, f, "lkd", parts, 5)
	base := runtime.NumGoroutine()

	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	for p := 0; p < parts; p++ {
		if _, err := c.FetchBufferedWait("", "lkd", p, 0, 5, 1<<20, time.Second, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open, want 1", n)
	}
	wc := c.sessWC("lkd", 0)
	if wc == nil {
		t.Fatal("no wire connection")
	}
	// Abrupt drop: no SessionClose, no FIN-then-drain courtesy.
	_ = wc.conn.Close()
	waitGoroutines(t, base+2) // the dropped client's endpoint may linger until Close
	if n := s.met().sessionsOpen.Value(); n != 0 {
		t.Fatalf("%d sessions still open after connection drop", n)
	}
}

// stallFrameBytes is the push batch bound the stalled-reader sessions
// open with: the "one frame" the pending bound may be overshot by.
const stallFrameBytes = 64 << 10

// serverWriterFor returns the server's respWriter for the server side of
// the client connection conn (white-box).
func serverWriterFor(t *testing.T, s *Server, conn net.Conn) *respWriter {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc, cst := range s.conns {
		if sc.RemoteAddr().String() == conn.LocalAddr().String() && cst.w != nil {
			return cst.w
		}
	}
	t.Fatal("no server writer for the connection")
	return nil
}

// stallSession opens a session with the largest window on a raw
// connection whose reader never reads (and whose receive buffer is
// pinned small), subscribes it to topic's partition 0 — which must hold
// more than the window — and waits until the server's write buffer
// reaches the pending bound. It returns the connection and the largest
// pending byte count seen, including after the pump has had time to
// push more if it were not parked.
func stallSession(t *testing.T, s *Server, addr, topic string) (net.Conn, int) {
	t.Helper()
	conn, rd := dialNegotiated(t, addr)
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	send := func(corr uint64, m ReqMsg) {
		frame, err := appendFrameRequestV2(nil, corr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(1, &SessionOpenReq{ID: 1, MaxBytes: stallFrameBytes, CreditBytes: maxSessionWindow})
	var open SessionOpenResp
	if _, _, err := DecodeResponseV2(readRespRaw(t, rd), &open); err != nil || open.CreditBytes != maxSessionWindow {
		t.Fatalf("session open: window %d, %v", open.CreditBytes, err)
	}
	w := serverWriterFor(t, s, conn)
	pending := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.buf)
	}
	send(2, &SessionSubReq{SessionID: 1, SubID: 1, Topic: topic})
	// From here on nothing reads the connection.
	peak := 0
	for deadline := time.Now().Add(10 * time.Second); peak < maxPooledFrame; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pending bytes peaked at %d, never reached the %d-byte bound", peak, maxPooledFrame)
		}
		peak = max(peak, pending())
	}
	// A parked pump adds nothing more; one that is not would keep
	// pushing into the buffer the stalled flusher cannot take. An absence
	// has no event to wait on, so give it time to show.
	time.Sleep(100 * time.Millisecond)
	return conn, max(peak, pending())
}

// TestSessionStalledReaderBoundsPending pins the server's write-side
// memory bound: a session pushing to a client that stopped reading parks
// its pump once maxPooledFrame bytes are pending — the window (16 MiB
// here) is far from spent, and no credit stall is counted — so the
// server holds at most the bound plus one frame. The parked pump is then
// released by a SessionClose, and separately by a connection drop, with
// no goroutine left behind.
func TestSessionStalledReaderBoundsPending(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	// 20 MiB of 4 KiB events: more than the largest window.
	if _, err := f.CreateTopic("stall", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 256)
	for i := range evs {
		evs[i] = event.Event{Value: make([]byte, 4<<10)}
	}
	for i := 0; i < 20; i++ {
		if _, err := f.Produce("", "stall", 0, evs, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
	// The pending buffer may overshoot the bound by the frame that
	// crossed it: stallFrameBytes of payload plus its event headers.
	const limit = maxPooledFrame + stallFrameBytes + 4<<10
	check := func(peak int) {
		t.Helper()
		if peak > limit {
			t.Fatalf("server pending bytes peaked at %d, want ≤ %d (bound %d + one frame)", peak, limit, maxPooledFrame)
		}
		if n := s.met().creditStalls.Value(); n != 0 {
			t.Fatalf("%d credit stalls: the window, not the pending bound, stopped the pump", n)
		}
	}

	t.Run("session-close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		conn, peak := stallSession(t, s, addr, "stall")
		check(peak)
		frame, err := appendFrameRequestV2(nil, 3, &SessionCloseReq{SessionID: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// The pump exits; the connection and its stalled flusher stay.
		waitGoroutines(t, base+2)
		if n := s.met().sessionsOpen.Value(); n != 0 {
			t.Fatalf("%d sessions open after SessionClose", n)
		}
		conn.Close()
		waitGoroutines(t, base)
	})
	t.Run("conn-drop", func(t *testing.T) {
		base := runtime.NumGoroutine()
		conn, peak := stallSession(t, s, addr, "stall")
		check(peak)
		conn.Close()
		waitGoroutines(t, base)
		if n := s.met().sessionsOpen.Value(); n != 0 {
			t.Fatalf("%d sessions open after the connection dropped", n)
		}
	})
}

// BenchmarkSessionPush measures the server's session push path on one
// connection: a session pushes 512-event frames of 256 B events from a
// preloaded partition to a raw client that drains them, decodes each
// batch into a reused slice and grants its window straight back, so
// every allocation counted is the server's. One op is one frame. It
// reports events/s and the bytes allocated per frame, and fails when
// steady-state pushes allocate more than 1 KiB per frame — that is, when
// any frame-sized buffer is allocated on the way, such as a write buffer
// regrown every flush.
func BenchmarkSessionPush(b *testing.B) {
	const frameEvents, valueBytes, logFrames = 512, 256, 64
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := f.CreateTopic("push", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		b.Fatal(err)
	}
	evs := make([]event.Event, frameEvents)
	for i := range evs {
		evs[i] = event.Event{Value: make([]byte, valueBytes)}
	}
	for i := 0; i < logFrames; i++ {
		if _, err := f.Produce("", "push", 0, evs, broker.AcksLeader); err != nil {
			b.Fatal(err)
		}
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	conn, rd := dialNegotiated(b, addr)
	var out []byte
	send := func(m ReqMsg) {
		if out, err = appendFrameRequestV2(out[:0], 1, m, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(out); err != nil {
			b.Fatal(err)
		}
	}
	// The 8 MiB window of the catch-up workload: enough for the pump to
	// run many frames ahead of the client.
	send(&SessionOpenReq{ID: 1, CreditBytes: 8 << 20})
	if _, _, err := DecodeResponseV2(readRespRaw(b, rd), nil); err != nil {
		b.Fatal(err)
	}
	sub := &SessionSubReq{SessionID: 1, SubID: 1, Topic: "push"}
	send(sub)
	credit := &SessionCreditReq{SessionID: 1}
	var hdr, data []byte
	var resp FetchResp
	var got []event.Event
	lap := 0
	// drain reads n pushed frames, re-subscribing from offset 0 under a
	// fresh sub ID each time the log has been read to its end.
	drain := func(n int) {
		for n > 0 {
			hb, err := readHeaderInto(rd, &hdr)
			if err != nil {
				b.Fatal(err)
			}
			payload, err := ReadPayloadInto(rd, data[:0])
			if err != nil {
				b.Fatal(err)
			}
			if hb[0] != v2OpSessionBatch {
				continue // the sub answers, which carry no payload
			}
			data = payload
			if _, _, err := DecodeResponseV2(hb, &resp); err != nil {
				b.Fatal(err)
			}
			if got, _, err = event.AppendUnmarshalBatch(got[:0], data, resp.NumEvents); err != nil {
				b.Fatal(err)
			}
			credit.CreditBytes = sessionBatchSize(got)
			send(credit)
			n--
			if lap += len(got); lap == frameEvents*logFrames {
				lap = 0
				sub.Remove = true
				send(sub)
				sub.SubID++
				sub.Remove = false
				send(sub)
			}
		}
	}
	drain(logFrames) // warm-up: every reused buffer reaches its size
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	drain(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	perFrame := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
	b.ReportMetric(float64(b.N*frameEvents)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(perFrame, "B/frame")
	// Re-subscribing costs a few hundred bytes once per logFrames frames;
	// below that many frames the figure is not steady state.
	if b.N >= logFrames && perFrame > 1<<10 {
		b.Fatalf("%.0f B allocated per pushed frame, want ≤ 1024", perFrame)
	}
}

// TestSessionCloseFailsWithErrConnClosed: closing the client
// mid-session completes the session with ErrConnClosed — both a parked
// wait-fetch and the next fetch observe it.
func TestSessionCloseFailsWithErrConnClosed(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	sessionTopic(t, f, "cl", 1, 10)
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf broker.FetchBuffer
	if _, err := c.FetchBuffered("", "cl", 0, 0, 100, 1<<20, &buf); err != nil {
		t.Fatal(err)
	}
	// Park a wait-fetch at the subscription's tail, then close underneath it.
	errCh := make(chan error, 1)
	go func() {
		var b2 broker.FetchBuffer
		_, err := c.FetchBufferedWait("", "cl", 0, 10, 100, 1<<20, 10*time.Second, &b2)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("parked session fetch returned %v, want ErrConnClosed", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("parked fetch took %v to observe Close", time.Since(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked session fetch never unblocked after Close")
	}
	if _, err := c.FetchBuffered("", "cl", 0, 10, 100, 1<<20, &buf); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-Close session fetch returned %v, want ErrConnClosed", err)
	}
}

// TestSessionDisconnectRecovers: a server-side connection drop fails the
// in-flight session, and the client's retry opens a fresh session on a
// fresh connection without losing position.
func TestSessionDisconnectRecovers(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sessionTopic(t, f, "dc", 1, 200)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	// Wait for the first push: a no-wait poll on a fresh subscription may
	// legitimately come back empty.
	res, err := c.FetchBufferedWait("", "dc", 0, 0, 50, 1<<20, 2*time.Second, &buf)
	if err != nil || len(res.Events) == 0 {
		t.Fatalf("first session fetch: %d events, %v", len(res.Events), err)
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	// Kill every server-side connection; the session dies with the
	// transport error, then the retry path opens a new one.
	s.Close()
	s2 := NewServer(f)
	s2.AllowAnonymous = true
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for off < 200 && time.Now().Before(deadline) {
		res, err := c.FetchBufferedWait("", "dc", 0, off, 50, 1<<20, 100*time.Millisecond, &buf)
		if err != nil {
			continue // transient while the new listener comes up
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d after reconnect", ev.Offset, off)
			}
			off++
		}
	}
	if off != 200 {
		t.Fatalf("reconnected consumption reached %d of 200", off)
	}
}

// TestSessionConsumerEndToEnd drives the full SDK consumer (group,
// prefetch, long-poll) over a session connection, interleaving
// production and consumption.
func TestSessionConsumerEndToEnd(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("e2e", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := client.NewConsumer(c, client.ConsumerConfig{
		Group: "g-e2e", Start: client.StartEarliest, AutoCommit: true,
		Prefetch: true, PollWait: 200 * time.Millisecond,
	})
	defer cons.Close()
	if err := cons.Subscribe("e2e"); err != nil {
		t.Fatal(err)
	}
	const total = 900
	go func() {
		for i := 0; i < total; i += 30 {
			evs := make([]event.Event, 30)
			for j := range evs {
				evs[j] = event.Event{Key: []byte{byte(j)}, Value: []byte(fmt.Sprintf("m%d", i+j))}
			}
			if _, err := f.Produce("", "e2e", -1, evs, broker.AcksLeader); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	got := 0
	lastOff := map[int]int64{}
	deadline := time.Now().Add(20 * time.Second)
	for got < total && time.Now().Before(deadline) {
		evs, err := cons.Poll(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if prev, ok := lastOff[ev.Partition]; ok && ev.Offset != prev+1 {
				t.Fatalf("partition %d offsets not contiguous: %d after %d", ev.Partition, ev.Offset, prev)
			}
			lastOff[ev.Partition] = ev.Offset
			got++
		}
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
}
