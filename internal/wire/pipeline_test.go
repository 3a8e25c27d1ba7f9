package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

// --- pipelined transport ---

// TestConcurrentRoundTripsOneConnection drives many goroutines through a
// single client connection: correlation dispatch must route every
// response to its caller (run under -race in CI).
func TestConcurrentRoundTripsOneConnection(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("pipe", "", cluster.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers, each = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := w % 4
			for j := 0; j < each; j++ {
				val := []byte(fmt.Sprintf("w%d-%d", w, j))
				if _, err := c.Produce("", "pipe", part, []event.Event{{Value: val}}, broker.AcksLeader); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
				// Interleave reads so produce and fetch responses mix on
				// the shared connection.
				if _, err := c.EndOffset("pipe", part); err != nil {
					t.Errorf("end offset: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for p := 0; p < 4; p++ {
		end, err := c.EndOffset("pipe", p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	if total != workers*each {
		t.Fatalf("produced %d, want %d", total, workers*each)
	}
	// Every event must be intact and routed to the partition its writer
	// chose (a correlation mixup would cross-wire responses, not events,
	// but fetch everything anyway to prove the data plane survived).
	got := 0
	for p := 0; p < 4; p++ {
		res, err := c.Fetch("", "pipe", p, 0, workers*each, 0)
		if err != nil {
			t.Fatal(err)
		}
		got += len(res.Events)
	}
	if got != workers*each {
		t.Fatalf("fetched %d, want %d", got, workers*each)
	}
}

// rawListen starts a protocol-speaking fake server for transport tests,
// returning its address. handler is invoked once per accepted
// connection.
func rawListen(t *testing.T, handler func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handler(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// handshakeRaw answers the client's connection-open sequence for a raw
// fake server: OpNegotiate gets v2, the anonymous ping probe gets an
// empty success, and the dial's metadata bootstrap is refused as an
// unknown op, so the client keeps every request on its seed connection.
func handshakeRaw(t *testing.T, conn net.Conn) bool {
	t.Helper()
	var req Request
	if _, err := ReadFrame(conn, &req); err != nil {
		return false
	}
	if WriteFrame(conn, &Response{Corr: req.Corr, Version: ProtocolV2}, nil) != nil {
		return false
	}
	corr, m, err := rawRequest(conn)
	if err != nil || rawRespond(conn, m.V2Op(), corr, &EmptyResp{}) != nil {
		return false
	}
	if corr, m, err = rawRequest(conn); err != nil {
		return false
	}
	frame, err := appendFrameResponseV2(nil, m.V2Op(), corr, nil, fmt.Errorf("%w %d", errUnknownOp, m.V2Op()), nil)
	if err == nil {
		_, err = conn.Write(frame)
	}
	return err == nil
}

// rawRequest reads one v2 request frame off a raw fake server's
// connection, discarding its payload.
func rawRequest(r io.Reader) (corr uint64, m ReqMsg, err error) {
	var hdr []byte
	hb, err := readHeaderInto(r, &hdr)
	if err != nil {
		return 0, nil, err
	}
	corr, _, m, err = decodeAnyRequestV2(hb, nil)
	if err != nil {
		return 0, nil, err
	}
	_, err = ReadPayloadInto(r, nil)
	return corr, m, err
}

// rawRespond writes one payload-free v2 success response frame.
func rawRespond(w io.Writer, op uint8, corr uint64, m Msg) error {
	frame, err := appendFrameResponseV2(nil, op, corr, m, nil, nil)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// dialRawAnon dials with a single pool connection, the configuration
// the raw fake-server tests assume: every request lands on the one
// connection the handler controls.
func dialRawAnon(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOutOfOrderResponseDelivery proves correlation matching: a server
// that answers two pipelined requests in reverse order must still
// complete each caller with its own response.
func TestOutOfOrderResponseDelivery(t *testing.T) {
	addr := rawListen(t, func(conn net.Conn) {
		if !handshakeRaw(t, conn) {
			return
		}
		// Collect two requests, then answer them newest-first, echoing
		// the requested partition as the offset so callers can tell the
		// responses apart.
		var corrs []uint64
		var reqs []*EndOffsetReq
		for len(reqs) < 2 {
			corr, m, err := rawRequest(conn)
			if err != nil {
				return
			}
			corrs, reqs = append(corrs, corr), append(reqs, m.(*EndOffsetReq))
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			if rawRespond(conn, v2OpEndOffset, corrs[i], &OffsetResp{Offset: int64(reqs[i].Partition)}) != nil {
				return
			}
		}
	})
	c := dialRawAnon(t, addr)
	defer c.Close()
	var wg sync.WaitGroup
	for _, part := range []int{41, 42} {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			off, err := c.EndOffset("t", part)
			if err != nil {
				t.Errorf("end offset %d: %v", part, err)
				return
			}
			if off != int64(part) {
				t.Errorf("caller for partition %d got response %d: responses cross-wired", part, off)
			}
		}(part)
	}
	wg.Wait()
}

// TestSlowHandlerDoesNotBlockPipeline pipelines a cheap ping behind a
// fetch that cannot finish on one connection against the real server:
// the fetch long-polls an empty partition, so it stays parked until the
// test appends, and the ping's response must arrive first in every
// round. A serial server answers strictly in request order: it would
// hold the ping behind the parked fetch until the long-poll lapsed.
func TestSlowHandlerDoesNotBlockPipeline(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("slow", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	conn, rd := dialNegotiated(t, addr)
	const rounds = 5
	for r := 0; r < rounds; r++ {
		fetchCorr, pingCorr := uint64(2*r+1), uint64(2*r+2)
		// The partition holds r events, so a fetch at offset r is dry.
		fetch := &FetchReq{Topic: "slow", Offset: int64(r), MaxEvents: 16, WaitMaxMS: 5000}
		frames, err := appendFrameRequestV2(nil, fetchCorr, fetch, nil)
		if err == nil {
			frames, err = appendFrameRequestV2(frames, pingCorr, &PingReq{}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		if _, corr, _ := DecodeResponseV2(readRespRaw(t, rd), nil); corr != pingCorr {
			t.Fatalf("round %d: first response has corr %d, want the ping's %d: a parked fetch blocked the pipeline", r, corr, pingCorr)
		}
		if _, err := f.Produce("", "slow", 0, []event.Event{{Value: []byte("release")}}, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
		var resp FetchResp
		_, corr, err := DecodeResponseV2(readRespRaw(t, rd), &resp)
		if err != nil || corr != fetchCorr || resp.NumEvents != 1 {
			t.Fatalf("round %d: fetch response corr %d events %d, %v; want corr %d with the appended event", r, corr, resp.NumEvents, err, fetchCorr)
		}
	}
}

// TestMidStreamDisconnectFansOutErrors kills the connection while
// several requests are in flight: every pending caller must get an
// error (no hangs), and the client must work again once a healthy
// server is reachable.
func TestMidStreamDisconnectFansOutErrors(t *testing.T) {
	inFlight := make(chan struct{}, 8)
	var accepted atomic.Int32
	addr := rawListen(t, func(conn net.Conn) {
		if accepted.Add(1) > 1 {
			// Fail reconnect attempts outright so callers surface errors
			// instead of retrying into the void.
			return
		}
		if !handshakeRaw(t, conn) {
			return
		}
		// Swallow requests without responding, then cut the connection
		// once all are in flight.
		for i := 0; i < 3; i++ {
			if _, _, err := rawRequest(conn); err != nil {
				return
			}
			inFlight <- struct{}{}
		}
		conn.Close()
	})
	c := dialRawAnon(t, addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			_, err := c.EndOffset("t", p)
			errs <- err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pending callers hung after mid-stream disconnect")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("caller succeeded against a server that never responded")
		}
	}
}

// TestDisconnectDuringPayloadRead cuts the connection after the
// response header but before the payload: the matched caller (already
// claimed from the pending map) must still be completed with the error
// rather than hang.
func TestDisconnectDuringPayloadRead(t *testing.T) {
	var accepted atomic.Int32
	addr := rawListen(t, func(conn net.Conn) {
		if accepted.Add(1) > 1 {
			return // fail reconnects
		}
		if !handshakeRaw(t, conn) {
			return
		}
		corr, _, err := rawRequest(conn)
		if err != nil {
			return
		}
		// Header promising a 1 KB payload, then only half of it.
		hb := AppendResponseV2(nil, v2OpFetch, corr, &FetchResp{NumEvents: 1})
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(hb)))
		frame = append(frame, hb...)
		frame = binary.BigEndian.AppendUint32(frame, 1024)
		frame = append(frame, make([]byte, 512)...)
		_, _ = conn.Write(frame)
		conn.Close()
	})
	c := dialRawAnon(t, addr)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Fetch("", "t", 0, 0, 10, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch succeeded on a truncated response")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("caller hung on a connection cut mid-payload")
	}
}

// TestCloseFailsPendingWithErrConnClosed is the regression test for
// Close during in-flight requests: the pending caller must complete
// promptly with ErrConnClosed, and later calls must keep returning it.
func TestCloseFailsPendingWithErrConnClosed(t *testing.T) {
	received := make(chan struct{})
	addr := rawListen(t, func(conn net.Conn) {
		if !handshakeRaw(t, conn) {
			return
		}
		if _, _, err := rawRequest(conn); err != nil {
			return
		}
		close(received)
		// Stall forever: only Close can release the caller.
		_, _, _ = rawRequest(conn)
	})
	c := dialRawAnon(t, addr)
	result := make(chan error, 1)
	go func() {
		_, err := c.EndOffset("t", 0)
		result <- err
	}()
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-result:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("pending caller got %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending caller hung across Close")
	}
	if _, err := c.EndOffset("t", 0); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call after Close = %v, want ErrConnClosed", err)
	}
	if err := c.Close(); err != nil { // double close stays fine
		t.Fatal(err)
	}
}

// TestPrefetchConsumerOverWire runs the SDK consumer with async
// prefetch over the pipelined transport end to end, verifying the
// stream inside each poll window (events alias the session arena and
// are only valid until the next Poll).
func TestPrefetchConsumerOverWire(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("pf", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i += 100 {
		batch := make([]event.Event, 100)
		for j := range batch {
			batch[j] = event.Event{Value: []byte(fmt.Sprintf("v%d", i+j))}
		}
		if _, err := f.Produce("", "pf", 0, batch, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := client.NewConsumer(c, client.ConsumerConfig{Start: client.StartEarliest, Prefetch: true, MaxPollEvents: 64})
	defer cons.Close()
	if err := cons.Assign("pf", 0); err != nil {
		t.Fatal(err)
	}
	next := 0
	deadline := time.Now().Add(10 * time.Second)
	for next < total && time.Now().Before(deadline) {
		evs, err := cons.Poll(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if want := fmt.Sprintf("v%d", next); string(ev.Value) != want {
				t.Fatalf("event %d = %q, want %q", next, ev.Value, want)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("consumed %d, want %d", next, total)
	}
}

// --- produce frame donation ---

// TestDonatedProduceBufferNotReused proves the ownership rule of frame
// donation: the wire server hands each produce frame to the fabric as
// the batch arena, so nothing on the server may recycle that buffer
// while the log records referencing it are live. Later traffic (which
// exercises every pooled buffer on the server) must not corrupt earlier
// events.
func TestDonatedProduceBufferNotReused(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("donate", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	marker := bytes.Repeat([]byte("sentinel-"), 100)
	if _, err := c.Produce("", "donate", 0, []event.Event{{Key: []byte("k0"), Value: marker}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	// Hammer the connection with produces and fetches sized like the
	// original frame: if the server pooled or reused donated buffers,
	// one of these would overwrite the first record's bytes in place.
	junk := bytes.Repeat([]byte("JUNKJUNK-"), 100)
	for i := 0; i < 200; i++ {
		if _, err := c.Produce("", "donate", 0, []event.Event{{Key: []byte("kx"), Value: junk}}, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Fetch("", "donate", 0, int64(i), 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Fetch("", "donate", 0, 0, 1, 0)
	if err != nil || len(res.Events) != 1 {
		t.Fatalf("fetch: %d events, %v", len(res.Events), err)
	}
	if !bytes.Equal(res.Events[0].Value, marker) || string(res.Events[0].Key) != "k0" {
		t.Fatal("donated produce buffer was reused while its batch was live")
	}
}

// TestProduceDonatedSkipsArenaClone pins the donation contract at the
// fabric boundary: donated bytes are stored as-is (mutating the donated
// buffer afterwards corrupts the record — which is exactly why donors
// must hand over ownership), while the regular Produce still clones.
func TestProduceDonatedSkipsArenaClone(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("d", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 1}); err != nil {
		t.Fatal(err)
	}
	donated := []byte("donated-bytes")
	if _, err := f.ProduceDonated("", "d", 0, []event.Event{{Value: donated}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	cloned := []byte("cloned-bytes!")
	if _, err := f.Produce("", "d", 0, []event.Event{{Value: cloned}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	donated[0] = 'X'
	cloned[0] = 'X'
	res, err := f.Fetch("", "d", 0, 0, 2, 0)
	if err != nil || len(res.Events) != 2 {
		t.Fatalf("fetch: %d events, %v", len(res.Events), err)
	}
	if string(res.Events[0].Value) != "Xonated-bytes" {
		t.Fatalf("donated record did not alias the donated buffer: %q", res.Events[0].Value)
	}
	if string(res.Events[1].Value) != "cloned-bytes!" {
		t.Fatalf("regular produce aliased the caller's buffer: %q", res.Events[1].Value)
	}
}
