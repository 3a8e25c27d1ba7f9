package wire

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

func startServer(t *testing.T, anonymous bool) (*broker.Fabric, string, func()) {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = anonymous
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return f, addr, s.Close
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpNegotiate, Corr: 3, MaxVersion: ProtocolV2}
	payload := []byte("binary-payload")
	if err := WriteFrame(&buf, &req, payload); err != nil {
		t.Fatal(err)
	}
	var got Request
	data, err := ReadFrame(&buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("header = %+v", got)
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("payload = %q", data)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpNegotiate}, nil); err != nil {
		t.Fatal(err)
	}
	var got Request
	data, err := ReadFrame(&buf, &got)
	if err != nil || data != nil {
		t.Fatalf("data = %v, err = %v", data, err)
	}
}

func TestEncodeDecodeEvents(t *testing.T) {
	evs := []event.Event{
		{Key: []byte("k"), Value: []byte("v1"), Timestamp: time.Unix(1, 0)},
		{Value: []byte("v2"), Timestamp: time.Unix(2, 0), Headers: map[string]string{"h": "x"}},
	}
	payload := EncodeEvents(evs)
	got, err := DecodeEvents(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].Value) != "v1" || got[1].Headers["h"] != "x" {
		t.Fatalf("decoded = %+v", got)
	}
	// Wrong count errors.
	if _, err := DecodeEvents(payload, 3); err == nil {
		t.Fatal("over-count accepted")
	}
	if _, err := DecodeEvents(payload, 1); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestAnonymousProduceFetch(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	evs := []event.Event{{Value: []byte("hello")}, {Value: []byte("world")}}
	off, err := c.Produce("", "t", 0, evs, broker.AcksLeader)
	if err != nil || off != 0 {
		t.Fatalf("produce: off=%d err=%v", off, err)
	}
	res, err := c.Fetch("", "t", 0, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 || string(res.Events[0].Value) != "hello" {
		t.Fatalf("fetch = %+v", res.Events)
	}
	if res.Events[0].Offset != 0 || res.Events[1].Offset != 1 {
		t.Fatalf("offsets = %d, %d", res.Events[0].Offset, res.Events[1].Offset)
	}
	if res.Events[0].Topic != "t" || res.Events[0].Partition != 0 {
		t.Fatalf("routing = %s/%d", res.Events[0].Topic, res.Events[0].Partition)
	}
	if res.HighWatermark != 2 {
		t.Fatalf("hw = %d", res.HighWatermark)
	}
}

func TestAuthenticatedFlowEnforcesACLs(t *testing.T) {
	f, addr, stop := startServer(t, false)
	defer stop()
	alice := f.Auth.RegisterIdentity("alice", "globus")
	mallory := f.Auth.RegisterIdentity("mallory", "globus")
	akey, _ := f.Auth.CreateKey(alice.ID)
	mkey, _ := f.Auth.CreateKey(mallory.ID)
	if _, err := f.CreateTopic("private", alice.ID, cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}

	ac, err := Dial(addr, akey.AccessKeyID, akey.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if _, err := ac.Produce("", "private", 0, []event.Event{{Value: []byte("x")}}, broker.AcksLeader); err != nil {
		t.Fatalf("owner produce: %v", err)
	}

	mc, err := Dial(addr, mkey.AccessKeyID, mkey.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, err := mc.Produce("", "private", 0, []event.Event{{Value: []byte("x")}}, broker.AcksLeader); !errors.Is(err, auth.ErrDenied) {
		t.Fatalf("intruder produce: %v", err)
	}
	if _, err := mc.Fetch("", "private", 0, 0, 10, 0); !errors.Is(err, auth.ErrDenied) {
		t.Fatalf("intruder fetch: %v", err)
	}
}

func TestBadCredentialsRejectedAtDial(t *testing.T) {
	_, addr, stop := startServer(t, false)
	defer stop()
	if _, err := Dial(addr, "AKIA-nope", "wrong"); !errors.Is(err, auth.ErrBadCredentials) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnauthenticatedOpsRejected(t *testing.T) {
	_, addr, stop := startServer(t, false)
	defer stop()
	if _, err := DialAnonymous(addr); !errors.Is(err, auth.ErrBadCredentials) {
		t.Fatalf("anonymous dial on auth-required server: %v", err)
	}
}

func TestSDKOverWire(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("sdk", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The full SDK producer/consumer stack over the wire transport.
	p := client.NewProducer(c, "sdk", client.ProducerConfig{BatchEvents: 16})
	for i := 0; i < 100; i++ {
		if err := p.SendJSON("", map[string]any{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	cons := client.NewConsumer(c, client.ConsumerConfig{Group: "g", Start: client.StartEarliest, AutoCommit: true})
	defer cons.Close()
	if err := cons.Subscribe("sdk"); err != nil {
		t.Fatal(err)
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < 100 && time.Now().Before(deadline) {
		evs, err := cons.Poll(50)
		if err != nil {
			t.Fatal(err)
		}
		got += len(evs)
	}
	if got != 100 {
		t.Fatalf("consumed %d over wire", got)
	}
}

func TestGroupOpsOverWire(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("g", "", cluster.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	asn, err := c.JoinGroup("grp", "m1", []string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	if len(asn.Partitions) != 4 || asn.Generation != 1 {
		t.Fatalf("assignment = %+v", asn)
	}
	if err := c.Commit("grp", "m1", asn.Generation, "g", 0, 5); err != nil {
		t.Fatal(err)
	}
	if off := c.Committed("grp", "g", 0); off != 5 {
		t.Fatalf("committed = %d", off)
	}
	gen, err := c.Heartbeat("grp", "m1")
	if err != nil || gen != 1 {
		t.Fatalf("heartbeat = %d, %v", gen, err)
	}
	c.LeaveGroup("grp", "m1")
	if members := f.Groups.Members("grp"); len(members) != 0 {
		t.Fatalf("members after leave = %v", members)
	}
}

func TestOffsetOpsOverWire(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("o", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	before := f.Clock.Now()
	if _, err := f.Produce("", "o", 0, []event.Event{{Value: []byte("a")}, {Value: []byte("b")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if off, err := c.EndOffset("o", 0); err != nil || off != 2 {
		t.Fatalf("end = %d, %v", off, err)
	}
	if off, err := c.StartOffset("o", 0); err != nil || off != 0 {
		t.Fatalf("start = %d, %v", off, err)
	}
	if off, err := c.OffsetForTime("o", 0, before); err != nil || off != 0 {
		t.Fatalf("time seek = %d, %v", off, err)
	}
	meta, err := c.TopicMeta("o")
	if err != nil || meta.Config.Partitions != 1 {
		t.Fatalf("meta = %+v, %v", meta, err)
	}
}

func TestWireErrorKindsSurviveTransport(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 2}); err != nil {
		t.Fatal(err)
	}
	// Take down both brokers so the leader is unavailable.
	_ = f.StopBroker(0)
	_ = f.StopBroker(1)
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Produce("", "t", 0, []event.Event{{Value: []byte("x")}}, broker.AcksLeader)
	if !errors.Is(err, broker.ErrLeaderUnavailable) {
		t.Fatalf("sentinel lost over wire: %v", err)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxFrame+1)
	if err := WriteFrame(&buf, &Request{Op: OpNegotiate}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientReconnectsAfterConnectionDrop(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("r", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Produce("", "r", 0, []event.Event{{Value: []byte("a")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	// Sever every pool connection out from under the client; the next
	// call reconnects transparently.
	c.mu.Lock()
	for _, ep := range c.eps {
		for _, wc := range ep.slots {
			if wc != nil {
				wc.conn.Close()
			}
		}
	}
	c.mu.Unlock()
	if _, err := c.Produce("", "r", 0, []event.Event{{Value: []byte("b")}}, broker.AcksLeader); err != nil {
		t.Fatalf("produce after drop: %v", err)
	}
	end, err := c.EndOffset("r", 0)
	if err != nil || end != 2 {
		t.Fatalf("end = %d, %v", end, err)
	}
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// idleWindow is how long the idle tests watch a parked consumer for
// log reads.
const idleWindow = 400 * time.Millisecond

// TestLongPollIdleConsumerPerformsNoReads is the tail-waiter regression
// test for the server's request/response long-poll: a FetchReq parked
// on WaitMaxMS issues no log reads between appends — the CPU cost of an
// idle poller is a blocked goroutine, not a poll loop — and an append
// wakes it.
func TestLongPollIdleConsumerPerformsNoReads(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	sessionTopic(t, f, "lp", 1, 5)
	log, err := f.LeaderLog("lp", 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, rd := dialNegotiated(t, addr)
	frame, err := appendFrameRequestV2(nil, 7, &FetchReq{Topic: "lp", Offset: 5, MaxEvents: 100, MaxBytes: 1 << 20, WaitMaxMS: 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads0 := log.Reads()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	type fetchRes struct {
		corr uint64
		resp FetchResp
		data []byte
		err  error
	}
	done := make(chan fetchRes, 1)
	go func() {
		var r fetchRes
		var hdr []byte
		hb, err := readHeaderInto(rd, &hdr)
		if err == nil {
			_, r.corr, r.err = DecodeResponseV2(hb, &r.resp)
			r.data, err = ReadPayloadInto(rd, nil)
		}
		if r.err == nil {
			r.err = err
		}
		done <- r
	}()
	// One dry read, then the handler parks on the log's tail waiter.
	waitUntil(t, "the long-poll's first read", func() bool { return log.Reads() > reads0 })
	before := log.Reads()
	time.Sleep(idleWindow)
	if delta := log.Reads() - before; delta != 0 {
		t.Fatalf("parked long-poll fetch performed %d log reads", delta)
	}
	if _, err := f.Produce("", "lp", 0, []event.Event{{Value: []byte("wake")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.corr != 7 {
			t.Fatalf("long-poll answer corr %d: %v", r.corr, r.err)
		}
		evs, err := DecodeEvents(r.data, r.resp.NumEvents)
		if err != nil || len(evs) != 1 || string(evs[0].Value) != "wake" {
			t.Fatalf("parked fetch woke with %d events (%v)", len(evs), err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked long-poll did not wake on append")
	}
}

// TestSessionIdleConsumerPerformsNoReads is the session twin: an SDK
// consumer drained to the tail parks on its subscription's local queue
// while the server's pump parks on the log's append callback, so an
// idle consumer costs no log reads at all — and an append wakes both.
func TestSessionIdleConsumerPerformsNoReads(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	sessionTopic(t, f, "sl", 1, 5)
	log, err := f.LeaderLog("sl", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := client.NewConsumer(c, client.ConsumerConfig{
		Start: client.StartEarliest, PollWait: 3 * time.Second,
	})
	defer cons.Close()
	if err := cons.Assign("sl", 0); err != nil {
		t.Fatal(err)
	}
	for drained := 0; drained < 5; {
		evs, err := cons.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(evs)
	}
	if c.sessSub("sl", 0) == nil {
		t.Fatal("consumer not served by a fetch session")
	}
	// The pump's reads: the one that pushed the backlog and the dry one
	// that armed the append callback. After that it is parked.
	waitUntil(t, "the pump's dry read", func() bool { return log.Reads() >= 2 })
	type pollRes struct {
		evs []event.Event
		err error
	}
	done := make(chan pollRes, 1)
	go func() {
		evs, err := cons.Poll(100)
		done <- pollRes{evs, err}
	}()
	before := log.Reads()
	time.Sleep(idleWindow)
	if delta := log.Reads() - before; delta != 0 {
		t.Fatalf("idle session consumer caused %d log reads", delta)
	}
	if _, err := f.Produce("", "sl", 0, []event.Event{{Value: []byte("wake")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.evs) != 1 || string(r.evs[0].Value) != "wake" {
			t.Fatalf("parked poll woke with %v", r.evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked poll did not wake on append")
	}
}

func TestConcurrentWireClients(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("cc", "", cluster.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialAnonymous(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < each; j++ {
				if _, err := c.Produce("", "cc", -1, []event.Event{{Value: []byte("x")}}, broker.AcksLeader); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for p := 0; p < 4; p++ {
		end, _ := f.EndOffset("cc", p)
		total += end
	}
	if total != clients*each {
		t.Fatalf("total = %d, want %d", total, clients*each)
	}
}

func TestLargeBatchOverWire(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("big", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 4 MB batch: 1024 x 4 KB events (well under MaxFrame).
	payload := make([]byte, 4096)
	batch := make([]event.Event, 1024)
	for i := range batch {
		batch[i] = event.Event{Value: payload}
	}
	if _, err := c.Produce("", "big", 0, batch, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	res, err := c.Fetch("", "big", 0, 0, 2048, 0)
	if err != nil || len(res.Events) != 1024 {
		t.Fatalf("fetched %d, %v", len(res.Events), err)
	}
	if len(res.Events[0].Value) != 4096 {
		t.Fatalf("payload size = %d", len(res.Events[0].Value))
	}
}

// TestRoutedSinglePartitionBatchAllocs: a per-event-routed batch whose
// events all map to one partition — every one-event batch — costs no
// more allocations than producing it to that partition directly, because
// it is sent as it is instead of being bucketed (which cost three). The
// counts are whole-process, the in-process server included, so the two
// sides are compared with one allocation of slack rather than pinned.
func TestRoutedSinglePartitionBatchAllocs(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	const parts = 4
	if _, err := f.CreateTopic("r", "", cluster.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A mixed batch still lands every keyed event on its key's partition.
	var mixed []event.Event
	want := make([]int64, parts)
	for i := 0; len(mixed) < 16; i++ {
		key := []byte{byte('a' + i)}
		mixed = append(mixed, event.Event{Key: key, Value: []byte("v")})
		want[broker.PartitionForKey(key, parts)]++
	}
	if _, err := c.Produce("", "r", -1, mixed, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	if !c.RouterEnabled() {
		t.Fatal("router not enabled: the batch was not pre-partitioned")
	}
	for p := 0; p < parts; p++ {
		if end, err := c.EndOffset("r", p); err != nil || end != want[p] {
			t.Fatalf("partition %d end = %d, %v; want %d", p, end, err, want[p])
		}
	}

	one := []event.Event{{Key: []byte("k"), Value: []byte("v")}}
	p := broker.PartitionForKey(one[0].Key, parts)
	produce := func(partition int) func() {
		return func() {
			if _, err := c.Produce("", "r", partition, one, broker.AcksLeader); err != nil {
				t.Fatal(err)
			}
		}
	}
	routed, direct := produce(-1), produce(p)
	routed()
	direct()
	routedAllocs := testing.AllocsPerRun(200, routed)
	directAllocs := testing.AllocsPerRun(200, direct)
	if routedAllocs > directAllocs+1 {
		t.Fatalf("routed one-event produce allocates %.0f times, direct %.0f: the batch was bucketed", routedAllocs, directAllocs)
	}
}
