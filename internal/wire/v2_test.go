package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// fuzzReqSeeds returns one populated instance of every v2 request
// message — the round-trip table and the fuzz corpus.
func fuzzReqSeeds() []ReqMsg {
	return []ReqMsg{
		&PingReq{},
		&AuthReq{AccessKeyID: "AKIA123", Secret: "s3cret"},
		&ProduceReq{Topic: "t", Partition: -1, Acks: -1, NumEvents: 64},
		&FetchReq{Topic: "telemetry", Partition: 3, Offset: 1 << 40, MaxEvents: 500, MaxBytes: 2 << 20},
		&EndOffsetReq{Topic: "t", Partition: 1},
		&StartOffsetReq{Topic: "t", Partition: 0},
		&OffsetForTimeReq{Topic: "t", Partition: 2, TimeNano: -7},
		&TopicMetaReq{Topic: "meta-topic"},
		&JoinGroupReq{Group: "g", Member: "m-1", Topics: []string{"a", "b", "c"}},
		&LeaveGroupReq{Group: "g", Member: "m-1"},
		&HeartbeatReq{Group: "g", Member: "m-1"},
		&CommitReq{Group: "g", Member: "m", Generation: 4, Topic: "t", Partition: 1, Offset: 99},
		&CommittedReq{Group: "g", Topic: "t", Partition: 1},
		&FetchReq{Topic: "lp", Partition: 0, Offset: 12, MaxEvents: 100, MaxBytes: 1 << 20, WaitMaxMS: 2500},
		&MetadataReq{},
		&MetadataReq{Topics: []string{"a", "b"}},
		&SessionOpenReq{ID: 3, MaxEvents: 500, MaxBytes: 1 << 20, CreditBytes: 1 << 20},
		&SessionSubReq{SessionID: 3, SubID: 12, Topic: "sess", Partition: 5, Offset: 1 << 34},
		&SessionSubReq{SessionID: 3, SubID: 12, Remove: true},
		&SessionCreditReq{SessionID: 3, CreditBytes: 65536},
		&SessionCloseReq{SessionID: 3},
		&ReplicaFetchReq{Topic: "rt", Partition: 2, Follower: 1, LeaderEpoch: 9, Offset: 1 << 30, MaxEvents: 500, MaxBytes: 4 << 20, WaitMaxMS: 250},
		&ReplicaAckReq{Topic: "rt", Partition: 2, Follower: 1, LeaderEpoch: 9, LogEnd: 1 << 30},
		&StatsReq{},
	}
}

// fuzzRespSeeds returns (op, message) pairs covering every v2 response
// body shape.
func fuzzRespSeeds() []struct {
	op uint8
	m  Msg
} {
	fetch := &FetchResp{NumEvents: 5, HighWatermark: 100, StartOffset: 2}
	fetch.SetOffsets([]event.Event{{Offset: 10}, {Offset: 11}, {Offset: 12}, {Offset: 40}, {Offset: 41}})
	return []struct {
		op uint8
		m  Msg
	}{
		{v2OpPing, &EmptyResp{}},
		{v2OpAuth, &AuthResp{Identity: "alice"}},
		{v2OpProduce, &ProduceResp{Offset: 1234}},
		{v2OpFetch, fetch},
		{v2OpEndOffset, &OffsetResp{Offset: -1}},
		{v2OpTopicMeta, &TopicMetaResp{Meta: &cluster.TopicMeta{
			Name:   "t",
			Config: cluster.TopicConfig{Partitions: 2, ReplicationFactor: 2, Retention: time.Hour},
			Partitions: []cluster.PartitionMeta{
				{Topic: "t", ID: 0, Leader: 1, Replicas: []int{1, 0}, ISR: []int{1}},
			},
		}}},
		{v2OpJoinGroup, &JoinGroupResp{Generation: 3, Partitions: []broker.TP{{Topic: "t", Partition: 0}, {Topic: "t", Partition: 1}}}},
		{v2OpHeartbeat, &HeartbeatResp{Generation: 9}},
		{v2OpSessionOpen, &SessionOpenResp{CreditBytes: 1 << 20}},
		{v2OpSessionSub, &SessionSubResp{HighWatermark: 77, StartOffset: 4}},
		{v2OpSessionBatch, func() Msg {
			b := &FetchResp{NumEvents: 2, HighWatermark: 9, StartOffset: 0}
			b.SetOffsets([]event.Event{{Offset: 7}, {Offset: 8}})
			return b
		}()},
		{v2OpMetadataPush, &MetadataResp{
			Epoch:   7,
			Brokers: []BrokerMeta{{ID: 2, Addr: "10.0.0.3:9092", Up: true}},
			Topics: []TopicLeadership{{
				Name:       "p",
				Partitions: []PartitionLeadership{{Leader: 2, Replicas: []int{2}, ISR: []int{2}}},
			}},
		}},
		{v2OpMetadata, &MetadataResp{
			Epoch: 42,
			Brokers: []BrokerMeta{
				{ID: 0, Addr: "10.0.0.1:9092", Up: true},
				{ID: 1, Addr: "10.0.0.2:9092", Up: false},
			},
			Topics: []TopicLeadership{{
				Name: "t",
				Partitions: []PartitionLeadership{
					{Leader: 0, Replicas: []int{0, 1}, ISR: []int{0}},
					{Leader: -1, Replicas: []int{1, 0}, ISR: nil},
				},
			}},
		}},
		{v2OpMetadata, &MetadataResp{
			Epoch:   43,
			Brokers: []BrokerMeta{{ID: 0, Addr: "10.0.0.1:9092", Up: true}},
			Topics: []TopicLeadership{{
				Name:       "r",
				Partitions: []PartitionLeadership{{Leader: 0, Replicas: []int{0, 1, 2}, ISR: []int{0, 1}}},
			}},
			Replication: &MetadataReplication{Topics: []TopicReplication{{
				Name: "r",
				Partitions: []PartitionReplication{{
					ID: 0, LeaderEpoch: 3, HighWatermark: 90, LogEnd: 100,
					Followers: []ReplicaProgress{{Broker: 1, LogEnd: 90}, {Broker: 2, LogEnd: 40}},
				}},
			}}},
		}},
		{v2OpReplicaFetch, func() Msg {
			b := &ReplicaFetchResp{NumEvents: 4, LeaderEpoch: 9, HighWatermark: 62, LogStart: 8, LogEnd: 64}
			b.SetOffsets([]event.Event{{Offset: 60}, {Offset: 61}, {Offset: 62}, {Offset: 63}})
			return b
		}()},
		{v2OpReplicaAck, &EmptyResp{}},
		{v2OpStats, statsRespSeed()},
	}
}

// statsRespSeed returns a StatsResp exercising every section of the
// body: counters, gauges, sparse histograms, and the produce
// stage-trace ring.
func statsRespSeed() *StatsResp {
	return &StatsResp{
		BrokerID: 1,
		Counters: []StatEntry{{Name: "fabric.produced", Value: 1234}, {Name: "fabric.bytes_in", Value: 1 << 33}},
		Gauges:   []StatEntry{{Name: "wire_sessions_open", Value: 3}},
		Hists: []StatHist{
			{Name: "fabric.produce_ns", Count: 10, Sum: 50_000,
				Buckets: []StatBucket{{Index: 64, Count: 7}, {Index: 129, Count: 3}}},
			{Name: "wire_fetch_ns", Count: 0, Sum: 0},
		},
		TraceStages:  []string{"leader_append", "replication_hw", "ack"},
		TraceEvery:   128,
		TraceSampled: 2,
		Traces: []StatsTrace{
			{StartUnixNano: 1_700_000_000_000_000_000, StageNs: []int64{1000, 2000, 500}, Events: 16, Acks: -1},
			{StartUnixNano: 1_700_000_000_000_100_000, StageNs: []int64{900, 0, 400}, Events: 1, Acks: 1},
		},
	}
}

// TestV2RequestCodecRoundTrip proves every request message survives
// encode → decode → re-encode byte-identically.
func TestV2RequestCodecRoundTrip(t *testing.T) {
	for _, m := range fuzzReqSeeds() {
		enc := AppendRequestV2(nil, 42, m)
		corr, op, got, err := decodeAnyRequestV2(enc, nil)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if corr != 42 || op != m.V2Op() {
			t.Fatalf("%T: corr=%d op=%d", m, corr, op)
		}
		enc2 := AppendRequestV2(nil, corr, got)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: re-encode mismatch\n %x\n %x", m, enc, enc2)
		}
	}
}

// TestV2ResponseCodecRoundTrip proves every response message survives
// encode → decode → re-encode byte-identically.
func TestV2ResponseCodecRoundTrip(t *testing.T) {
	for _, seed := range fuzzRespSeeds() {
		enc := AppendResponseV2(nil, seed.op, 77, seed.m)
		got := newRespMsg(seed.op)
		op, corr, err := DecodeResponseV2(enc, got)
		if err != nil {
			t.Fatalf("op %d (%T): decode: %v", seed.op, seed.m, err)
		}
		if op != seed.op || corr != 77 {
			t.Fatalf("op %d: got op=%d corr=%d", seed.op, op, corr)
		}
		enc2 := AppendResponseV2(nil, op, corr, got)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("op %d (%T): re-encode mismatch\n %x\n %x", seed.op, seed.m, enc, enc2)
		}
	}
}

// TestV2ErrorCodesRoundTrip proves every sentinel survives the compact
// error-code encoding with errors.Is intact.
func TestV2ErrorCodesRoundTrip(t *testing.T) {
	sentinels := []error{
		broker.ErrLeaderUnavailable,
		broker.ErrNotEnoughReplicas,
		broker.ErrStaleGeneration,
		auth.ErrDenied,
		auth.ErrBadCredentials,
		cluster.ErrNoTopic,
		eventlog.ErrOffsetOutOfRange,
		broker.ErrNoPartition,
		broker.ErrUnknownMember,
		broker.ErrBrokerDown,
	}
	for _, want := range sentinels {
		wrapped := fmt.Errorf("%w: partition 3 details", want)
		enc := appendErrResponseV2(nil, v2OpFetch, 5, wrapped)
		_, _, err := DecodeResponseV2(enc, nil)
		if err == nil || !errors.Is(err, want) {
			t.Fatalf("sentinel %v lost: decoded %v", want, err)
		}
	}
	// Unclassified errors come back as plain errors with the detail.
	enc := appendErrResponseV2(nil, v2OpPing, 1, errors.New("weird failure"))
	_, _, err := DecodeResponseV2(enc, nil)
	if err == nil || err.Error() != "weird failure" {
		t.Fatalf("other-class error = %v", err)
	}
}

// TestFetchRespDenseRuns pins the offset encoding: a gapless batch is a
// single run (constant header size), gaps add runs, and Stamp
// reproduces the exact per-event offsets either way.
func TestFetchRespDenseRuns(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{5, 6, 7, 8},
		{10, 11, 40, 41, 42, 99},       // compaction gaps
		{3, 1, 2},                      // non-monotonic (defensive)
		{100, 102, 104, 106, 108, 110}, // every event its own run
	}
	for _, offs := range cases {
		evs := make([]event.Event, len(offs))
		for i, o := range offs {
			evs[i].Offset = o
		}
		var resp FetchResp
		resp.NumEvents = len(evs)
		resp.SetOffsets(evs)
		enc := resp.AppendBody(nil)
		var dec FetchResp
		if err := dec.DecodeBody(enc); err != nil {
			t.Fatalf("offsets %v: %v", offs, err)
		}
		got := make([]event.Event, len(offs))
		dec.Stamp(got, "t", 1)
		for i := range got {
			if got[i].Offset != offs[i] {
				t.Fatalf("offsets %v: event %d stamped %d", offs, i, got[i].Offset)
			}
			if got[i].Topic != "t" || got[i].Partition != 1 {
				t.Fatalf("offsets %v: routing not stamped", offs)
			}
		}
	}
	// The dense case must not scale with batch size: 10k consecutive
	// offsets encode as one run.
	evs := make([]event.Event, 10000)
	for i := range evs {
		evs[i].Offset = int64(1_000_000 + i)
	}
	var resp FetchResp
	resp.NumEvents = len(evs)
	resp.SetOffsets(evs)
	if n := len(resp.AppendBody(nil)); n > 32 {
		t.Fatalf("dense 10k-event offset encoding took %d bytes", n)
	}
}

// TestHeaderBoundIndependentOfPayloadBound is the MaxFrame-enforcement
// regression test: a header length near the old shared cap must be
// rejected before any allocation or read, on its own MaxHeader bound.
func TestHeaderBoundIndependentOfPayloadBound(t *testing.T) {
	// A frame claiming a 63 MiB header: under MaxFrame, far over
	// MaxHeader. ReadHeader must reject it from the length alone.
	frame := []byte{0x03, 0xf0, 0x00, 0x00} // 63 MiB, big endian
	var req Request
	err := ReadHeader(trackedReader{bytes.NewReader(frame)}, &req)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("63 MiB header accepted: %v", err)
	}
	// Write side: an over-sized v2 header is refused symmetrically,
	// leaving the frame buffer as it was.
	big := &ProduceReq{Topic: strings.Repeat("x", MaxHeader+1)}
	if buf, err := appendFrameRequestV2(nil, 1, big, nil); !errors.Is(err, ErrFrameTooLarge) || len(buf) != 0 {
		t.Fatalf("oversized header written: %d bytes, %v", len(buf), err)
	}
	// Payloads keep their own, larger bound.
	if _, err := appendFrameRequestV2(nil, 1, &PingReq{}, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized payload written: %v", err)
	}
}

// trackedReader fails the read itself if more than the 4-byte length
// prefix is consumed — proving rejection happens before any header
// read.
type trackedReader struct{ r io.Reader }

func (t trackedReader) Read(p []byte) (int, error) {
	if len(p) > 4 {
		return 0, errors.New("read past the length prefix of a rejected header")
	}
	return t.r.Read(p)
}

// TestNegotiationSelectsV2 pins the happy-path handshake: current
// client against current server lands on protocol v2 and bootstraps
// its routing table from the same connection.
func TestNegotiationSelectsV2(t *testing.T) {
	_, addr, stop := startServer(t, true)
	defer stop()
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.RouterEnabled() {
		t.Fatal("routing table not bootstrapped at dial")
	}
}

// dialNegotiated opens a raw connection to addr and runs the current
// client's negotiate exchange (see dialNegotiatedAs).
func dialNegotiated(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	return dialNegotiatedAs(t, addr, &Request{Op: OpNegotiate, Corr: 1, MaxVersion: ProtocolV2})
}

// dialNegotiatedAs opens a raw connection to addr and sends hdr as the
// negotiate frame, failing the test unless the server answers with v2
// and no feature word. It returns the connection (closed at cleanup)
// and the reader every later frame must be read through.
func dialNegotiatedAs(t testing.TB, addr string, hdr any) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, hdr, nil); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	var resp struct {
		Response
		Features uint32 `json:"features"`
	}
	if _, err := ReadFrame(rd, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != ProtocolV2 || resp.Err != "" || resp.Features != 0 {
		t.Fatalf("negotiation = v%d %q, features %#x", resp.Version, resp.Err, resp.Features)
	}
	return conn, rd
}

// readRespRaw reads the next v2 response frame from rd and returns a
// copy of its header, discarding the payload. Metadata pushes are
// skipped: the server's epoch watcher may still be pushing a topic
// created just before the dial.
func readRespRaw(t testing.TB, rd *bufio.Reader) []byte {
	t.Helper()
	for {
		var hdr []byte
		hb, err := readHeaderInto(rd, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPayloadInto(rd, nil); err != nil {
			t.Fatal(err)
		}
		if len(hb) == 0 || hb[0] != v2OpMetadataPush {
			return hb
		}
	}
}

// TestDialDuringMetadataPush is the start-up race regression test: a
// server that pushes metadata straight after its negotiate answer — in
// the same TCP segment, as a broker's epoch watcher can when a client
// dials during a topology change — must not have the push misread. The
// client comes up every time with the pushed epoch adopted.
func TestDialDuringMetadataPush(t *testing.T) {
	const pushedEpoch = 7
	addr := rawListen(t, func(conn net.Conn) {
		var req Request
		if _, err := ReadFrame(conn, &req); err != nil {
			return
		}
		var out bytes.Buffer
		if WriteFrame(&out, &Response{Corr: req.Corr, Version: ProtocolV2}, nil) != nil {
			return
		}
		push, err := appendFrameResponseV2(nil, v2OpMetadataPush, 0, &MetadataResp{Epoch: pushedEpoch}, nil, nil)
		if err != nil {
			return
		}
		out.Write(push)
		if _, err := conn.Write(out.Bytes()); err != nil {
			return
		}
		for {
			corr, m, err := rawRequest(conn)
			if err != nil || rawRespond(conn, m.V2Op(), corr, &EmptyResp{}) != nil {
				return
			}
		}
	})
	const dials = 100
	for i := 0; i < dials; i++ {
		c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
		if err != nil {
			t.Fatalf("dial %d of %d: %v", i+1, dials, err)
		}
		epoch := c.MetadataEpoch()
		c.Close()
		if epoch != pushedEpoch {
			t.Fatalf("dial %d of %d: metadata epoch %d, want the pushed %d", i+1, dials, epoch, pushedEpoch)
		}
	}
}

// TestV1PeerRefused pins the clean refusal between this build and a
// peer that cannot speak v2, in both directions: an error, never a
// hang, and nothing left behind.
func TestV1PeerRefused(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		// A server that predates negotiation answers it as an unknown
		// op and keeps the connection open, waiting for v1 requests.
		addr := rawListen(t, func(conn net.Conn) {
			var req Request
			if _, err := ReadFrame(conn, &req); err != nil {
				return
			}
			resp := &Response{Corr: req.Corr, Err: fmt.Sprintf("wire: unknown op %q", req.Op), ErrKind: "unknown_op"}
			if WriteFrame(conn, resp, nil) != nil {
				return
			}
			_, _ = io.Copy(io.Discard, conn)
		})
		base := runtime.NumGoroutine()
		start := time.Now()
		if c, err := DialAnonymous(addr); err == nil {
			c.Close()
			t.Fatal("dial succeeded against a v1-only server")
		}
		if el := time.Since(start); el >= IOTimeout {
			t.Fatalf("refused dial took %v", el)
		}
		// The client closes its side, which ends the fake server's
		// handler; nothing of the client's may outlive the dial.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the refused dial, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	t.Run("server", func(t *testing.T) {
		f := broker.NewFabric(nil)
		if err := f.AddBrokers(1, 2, 8); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(f)
		srv.AllowAnonymous = true
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		// A v1 client's first frame: a JSON ping, no negotiation.
		if err := WriteFrame(conn, &Request{Op: "ping", Corr: 5}, nil); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if _, err := ReadFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Corr != 5 || resp.Err == "" || resp.ErrKind != "unknown_op" {
			t.Fatalf("first-frame answer = %+v, want an unknown-op error for corr 5", resp)
		}
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after the refusal read %d bytes, %v; want EOF", n, err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			srv.mu.Lock()
			n := len(srv.conns)
			srv.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still tracked after the refusal", n)
			}
		}
	})
}

// retiredStreamOps are the op bytes of the retired per-partition stream
// transport (open, batch, credit, close), reserved so that every later
// op keeps its wire value.
var retiredStreamOps = []uint8{v2OpCommitted + 1, v2OpCommitted + 2, v2OpCommitted + 3, v2OpCommitted + 4}

// TestRetiredStreamSurface pins the retired wire surface: later op
// bytes keep their values, a peer that still sends the retired feature
// word (every reserved bit 1<<0..1<<7) negotiates v2 and gets no word
// back, that connection answers every retired stream op byte as an
// unknown op, and it then serves a fetch.
func TestRetiredStreamSurface(t *testing.T) {
	if v2OpMetadata != 18 || v2OpSessionOpen != 19 || v2OpReplicaFetch != 25 || v2OpStats != 27 {
		t.Fatalf("op bytes moved: metadata %d, session open %d, replica fetch %d, stats %d",
			v2OpMetadata, v2OpSessionOpen, v2OpReplicaFetch, v2OpStats)
	}
	f, addr, stop := startServer(t, true)
	defer stop()
	sessionTopic(t, f, "rs", 1, 3)
	conn, rd := dialNegotiatedAs(t, addr, map[string]any{
		"op": OpNegotiate, "corr": 1, "max_version": ProtocolV2, "features": 0xff,
	})
	for i, op := range retiredStreamOps {
		corr := uint64(10 + i)
		hdr := binary.BigEndian.AppendUint64([]byte{op}, corr)
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
		frame = binary.BigEndian.AppendUint32(append(frame, hdr...), 0)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		gotOp, gotCorr, err := DecodeResponseV2(readRespRaw(t, rd), nil)
		if gotOp != op || gotCorr != corr || !errors.Is(err, errUnknownOp) {
			t.Fatalf("retired op %d: answered op %d corr %d err %v, want unknown op", op, gotOp, gotCorr, err)
		}
	}
	frame, err := appendFrameRequestV2(nil, 20, &FetchReq{Topic: "rs", MaxEvents: 10, MaxBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var fresp FetchResp
	if _, corr, err := DecodeResponseV2(readRespRaw(t, rd), &fresp); err != nil || corr != 20 || fresp.NumEvents != 3 {
		t.Fatalf("fetch after retired ops: corr %d, %d events, %v", corr, fresp.NumEvents, err)
	}
}

// FuzzDecodeRequestV2 feeds arbitrary bytes to the server-side request
// decoder: it must never panic, and any header it accepts must
// round-trip byte-identically through re-encode → decode → re-encode.
func FuzzDecodeRequestV2(f *testing.F) {
	for _, m := range fuzzReqSeeds() {
		f.Add(AppendRequestV2(nil, 7, m))
	}
	f.Add([]byte{})
	f.Add([]byte{v2OpFetch})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1})
	// Frames an old peer may still send on the retired stream op bytes,
	// bare and with an old-style body: rejected, never decoded.
	for _, op := range retiredStreamOps {
		f.Add([]byte{op, 0, 0, 0, 0, 0, 0, 0, 3})
		f.Add([]byte{op, 0, 0, 0, 0, 0, 0, 0, 3, 7, 2, 't', 'p', 2, 200, 1})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		corr, op, m, err := decodeAnyRequestV2(b, nil)
		if err != nil {
			return // malformed input correctly rejected
		}
		enc := AppendRequestV2(nil, corr, m)
		m2 := newReqMsg(op)
		corr2, err := DecodeRequestV2(enc, m2)
		if err != nil {
			t.Fatalf("canonical re-decode failed: %v", err)
		}
		if corr2 != corr {
			t.Fatalf("corr %d → %d", corr, corr2)
		}
		if enc2 := AppendRequestV2(nil, corr2, m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip\n %x\n %x", enc, enc2)
		}
	})
}

// FuzzDecodeResponseV2 is FuzzDecodeRequestV2 for the client-side
// response decoder, covering both success bodies and error codes.
func FuzzDecodeResponseV2(f *testing.F) {
	for _, seed := range fuzzRespSeeds() {
		f.Add(AppendResponseV2(nil, seed.op, 7, seed.m))
	}
	f.Add(appendErrResponseV2(nil, v2OpFetch, 9, fmt.Errorf("%w: gone", broker.ErrLeaderUnavailable)))
	f.Add([]byte{})
	f.Add([]byte{v2OpFetch, 200, 0, 0, 0, 0, 0, 0, 0, 1})
	// Pushes an old server may still send on the retired stream batch
	// and close op bytes.
	batch := &FetchResp{NumEvents: 2, HighWatermark: 9}
	batch.SetOffsets([]event.Event{{Offset: 7}, {Offset: 8}})
	f.Add(AppendResponseV2(nil, retiredStreamOps[1], 7, batch))
	f.Add(appendErrResponseV2(nil, retiredStreamOps[3], 7, fmt.Errorf("%w: gone", eventlog.ErrOffsetOutOfRange)))
	f.Fuzz(func(t *testing.T, b []byte) {
		op, code, corr, body, err := decodeRespPrefixV2(b)
		if err != nil {
			return
		}
		if code != codeOK {
			detail, _, derr := getStr(body)
			if derr != nil {
				return
			}
			if e := errFromCode(code, detail); e == nil {
				t.Fatal("error code decoded to nil error")
			}
			return
		}
		m := newRespMsg(op)
		if m == nil {
			return // unknown op: the client matches ops itself
		}
		if err := m.DecodeBody(body); err != nil {
			return
		}
		enc := AppendResponseV2(nil, op, corr, m)
		m2 := newRespMsg(op)
		op2, corr2, err := DecodeResponseV2(enc, m2)
		if err != nil {
			t.Fatalf("canonical re-decode failed: %v", err)
		}
		if op2 != op || corr2 != corr {
			t.Fatalf("prefix drift: op %d→%d corr %d→%d", op, op2, corr, corr2)
		}
		if enc2 := AppendResponseV2(nil, op2, corr2, m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip\n %x\n %x", enc, enc2)
		}
	})
}

// FuzzDecodeSessionFrames feeds arbitrary bytes to every fetch-session
// message decoder — the open/sub/credit/close requests (with and
// without a topic interner) and the pushed batch and metadata headers —
// asserting the usual contract: malformed input errors (never panics)
// and any accepted body round-trips byte-identically through re-encode
// → decode → re-encode.
func FuzzDecodeSessionFrames(f *testing.F) {
	batch := &FetchResp{NumEvents: 4, HighWatermark: 44, StartOffset: 2}
	batch.SetOffsets([]event.Event{{Offset: 40}, {Offset: 41}, {Offset: 42}, {Offset: 43}})
	f.Add(uint8(0), AppendRequestV2(nil, 6, &SessionOpenReq{ID: 2, MaxEvents: 500, MaxBytes: 1 << 20, CreditBytes: 1 << 20}))
	f.Add(uint8(1), AppendRequestV2(nil, 7, &SessionSubReq{SessionID: 2, SubID: 9, Topic: "t", Partition: 1, Offset: 50}))
	f.Add(uint8(1), AppendRequestV2(nil, 8, &SessionSubReq{SessionID: 2, SubID: 9, Remove: true}))
	f.Add(uint8(2), AppendRequestV2(nil, 9, &SessionCreditReq{SessionID: 2, CreditBytes: 4096}))
	f.Add(uint8(2), AppendRequestV2(nil, 10, &SessionCloseReq{SessionID: 2}))
	f.Add(uint8(3), AppendResponseV2(nil, v2OpSessionBatch, sessCorr(2, 9), batch))
	f.Add(uint8(3), appendErrResponseV2(nil, v2OpSessionClose, sessCorr(2, 9), fmt.Errorf("%w: gone", eventlog.ErrOffsetOutOfRange)))
	f.Add(uint8(3), AppendResponseV2(nil, v2OpMetadataPush, 0, &MetadataResp{
		Epoch:   3,
		Brokers: []BrokerMeta{{ID: 0, Addr: "b0:1", Up: true}},
		Topics:  []TopicLeadership{{Name: "t", Partitions: []PartitionLeadership{{Leader: 0, Replicas: []int{0}, ISR: []int{0}}}}},
	}))
	f.Add(uint8(0), AppendRequestV2(nil, 11, &ReplicaFetchReq{Topic: "t", Partition: 1, Follower: 2, LeaderEpoch: 5, Offset: 40, MaxEvents: 500, MaxBytes: 1 << 20, WaitMaxMS: 100}))
	f.Add(uint8(1), AppendRequestV2(nil, 12, &ReplicaAckReq{Topic: "t", Partition: 1, Follower: 2, LeaderEpoch: 5, LogEnd: 44}))
	replicaBatch := &ReplicaFetchResp{NumEvents: 4, LeaderEpoch: 5, HighWatermark: 43, LogStart: 0, LogEnd: 44}
	replicaBatch.SetOffsets([]event.Event{{Offset: 40}, {Offset: 41}, {Offset: 42}, {Offset: 43}})
	f.Add(uint8(3), AppendResponseV2(nil, v2OpReplicaFetch, 11, replicaBatch))
	f.Add(uint8(3), appendErrResponseV2(nil, v2OpReplicaFetch, 11, fmt.Errorf("%w: epoch 4 < 5", broker.ErrFencedEpoch)))
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		if kind%4 == 3 {
			// Pushed frames: client-side prefix decode, then the body of
			// whichever push shape the op names (batch or metadata).
			op, code, corr, body, err := decodeRespPrefixV2(b)
			if err != nil {
				return
			}
			if code != codeOK {
				if detail, _, derr := getStr(body); derr == nil {
					if e := errFromCode(code, detail); e == nil {
						t.Fatal("session close code decoded to nil error")
					}
				}
				return
			}
			if op == v2OpMetadataPush {
				var m MetadataResp
				if err := m.DecodeBody(body); err != nil {
					return
				}
				enc := AppendResponseV2(nil, op, corr, &m)
				var m2 MetadataResp
				op2, corr2, err := DecodeResponseV2(enc, &m2)
				if err != nil || op2 != op || corr2 != corr {
					t.Fatalf("canonical metadata push re-decode: op %d→%d corr %d→%d err %v", op, op2, corr, corr2, err)
				}
				if enc2 := AppendResponseV2(nil, op2, corr2, &m2); !bytes.Equal(enc, enc2) {
					t.Fatalf("unstable metadata push round trip\n %x\n %x", enc, enc2)
				}
				return
			}
			var m FetchResp
			if err := m.DecodeBody(body); err != nil {
				return
			}
			// Session frames pack (session, sub) into the corr; the split
			// must be lossless for any corr the decoder accepts.
			if sid, sub := splitSessCorr(corr); op == v2OpSessionBatch && sessCorr(sid, sub) != corr {
				t.Fatalf("sessCorr not lossless for %#x", corr)
			}
			enc := AppendResponseV2(nil, op, corr, &m)
			var m2 FetchResp
			op2, corr2, err := DecodeResponseV2(enc, &m2)
			if err != nil || op2 != op || corr2 != corr {
				t.Fatalf("canonical pushed batch re-decode: op %d→%d corr %d→%d err %v", op, op2, corr, corr2, err)
			}
			if enc2 := AppendResponseV2(nil, op2, corr2, &m2); !bytes.Equal(enc, enc2) {
				t.Fatalf("unstable pushed batch round trip\n %x\n %x", enc, enc2)
			}
			return
		}
		// Request frames, decoded exactly as the server does: pooled
		// message, per-connection interner.
		var in Interner
		corr, op, m, err := decodeAnyRequestV2(b, &in)
		if err != nil {
			return
		}
		switch m.(type) {
		case *SessionOpenReq, *SessionSubReq, *SessionCreditReq, *SessionCloseReq:
		default:
			return // not a session op; covered by FuzzDecodeRequestV2
		}
		enc := AppendRequestV2(nil, corr, m)
		m2 := newReqMsg(op)
		corr2, err := DecodeRequestV2Interned(enc, m2, &in)
		if err != nil || corr2 != corr {
			t.Fatalf("canonical re-decode: corr %d→%d err %v", corr, corr2, err)
		}
		if enc2 := AppendRequestV2(nil, corr2, m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable session request round trip\n %x\n %x", enc, enc2)
		}
	})
}

// TestMetadataRequiresAuth pins the inline OpMetadata handler's auth
// gate: a connection that negotiated v2 but never authenticated must get bad-credentials, not the cluster topology —
// broker addresses and leadership are not for anyone who can merely
// reach a port.
func TestMetadataRequiresAuth(t *testing.T) {
	_, addr, stop := startServer(t, false) // authentication required
	defer stop()
	conn, rd := dialNegotiated(t, addr)
	frame, err := appendFrameRequestV2(nil, 2, &MetadataReq{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var resp MetadataResp
	_, _, err = DecodeResponseV2(readRespRaw(t, rd), &resp)
	if !errors.Is(err, auth.ErrBadCredentials) {
		t.Fatalf("unauthenticated metadata error = %v, want bad credentials", err)
	}
	if len(resp.Brokers) != 0 {
		t.Fatalf("unauthenticated metadata leaked %d brokers", len(resp.Brokers))
	}
}

// TestStatsRequiresAuth pins the inline OpStats handler's auth gate: a
// connection that negotiated v2 but never authenticated
// must get bad-credentials, not the broker's telemetry — metric names
// alone map out topics and deployment shape.
func TestStatsRequiresAuth(t *testing.T) {
	_, addr, stop := startServer(t, false) // authentication required
	defer stop()
	conn, rd := dialNegotiated(t, addr)
	frame, err := appendFrameRequestV2(nil, 2, &StatsReq{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var resp StatsResp
	_, _, err = DecodeResponseV2(readRespRaw(t, rd), &resp)
	if !errors.Is(err, auth.ErrBadCredentials) {
		t.Fatalf("unauthenticated stats error = %v, want bad credentials", err)
	}
	if len(resp.Counters) != 0 || len(resp.Hists) != 0 {
		t.Fatalf("unauthenticated stats leaked %d counters, %d hists", len(resp.Counters), len(resp.Hists))
	}
}

// TestStatHistQuantileMatchesSnapshot pins the client-side sparse
// quantile against the broker-side bucketed one: a StatHist built the
// way appendExport builds it must report the same quantiles as the
// metrics.BucketSnapshot it came from — octopus-cli and the HTTP
// exposition must never disagree about the same broker.
func TestStatHistQuantileMatchesSnapshot(t *testing.T) {
	var bh metrics.BucketHist
	for i := int64(1); i <= 4000; i++ {
		bh.Observe(i * 37)
	}
	snap := bh.Snapshot()
	sh := StatHist{Count: snap.Count, Sum: snap.Sum}
	for idx, cnt := range snap.Buckets {
		if cnt != 0 {
			sh.Buckets = append(sh.Buckets, StatBucket{Index: idx, Count: cnt})
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want := snap.Quantile(q)
		if got := sh.Quantile(q); got != want {
			t.Fatalf("q=%v: wire %v, snapshot %v", q, got, want)
		}
	}
}

// FuzzDecodeStatsV2 feeds arbitrary bytes to the StatsResp body decoder
// (the observability snapshot a CLI trusts from any broker): malformed
// input must error, never panic or over-allocate, and any accepted body
// must round-trip byte-identically through re-encode → decode →
// re-encode.
func FuzzDecodeStatsV2(f *testing.F) {
	f.Add(statsRespSeed().AppendBody(nil))
	f.Add((&StatsResp{BrokerID: -1}).AppendBody(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		var resp StatsResp
		if err := resp.DecodeBody(b); err != nil {
			return
		}
		enc := resp.AppendBody(nil)
		var resp2 StatsResp
		if err := resp2.DecodeBody(enc); err != nil {
			t.Fatalf("canonical stats re-decode failed: %v", err)
		}
		if enc2 := resp2.AppendBody(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable stats round trip\n %x\n %x", enc, enc2)
		}
	})
}

// FuzzDecodeMetadataV2 feeds arbitrary bytes to the OpMetadata
// request and response body decoders (the cluster-routing control
// plane): malformed input must error, never panic, and any accepted
// body must round-trip byte-identically — the routing table a client
// builds from a re-encoded document must match the original.
func FuzzDecodeMetadataV2(f *testing.F) {
	for _, m := range []Msg{
		&MetadataReq{},
		&MetadataReq{Topics: []string{"events", "audit"}},
		&MetadataResp{
			Epoch:   7,
			Brokers: []BrokerMeta{{ID: 2, Addr: "127.0.0.1:40000", Up: true}},
			Topics: []TopicLeadership{{
				Name:       "events",
				Partitions: []PartitionLeadership{{Leader: 2, Replicas: []int{2, 0}, ISR: []int{2, 0}}},
			}},
		},
		&MetadataResp{
			Epoch:   8,
			Brokers: []BrokerMeta{{ID: 2, Addr: "127.0.0.1:40000", Up: true}},
			Topics: []TopicLeadership{{
				Name:       "events",
				Partitions: []PartitionLeadership{{Leader: 2, Replicas: []int{2, 0}, ISR: []int{2}}},
			}},
			Replication: &MetadataReplication{Topics: []TopicReplication{{
				Name: "events",
				Partitions: []PartitionReplication{{
					ID: 0, LeaderEpoch: 2, HighWatermark: 50, LogEnd: 64,
					Followers: []ReplicaProgress{{Broker: 0, LogEnd: 50}},
				}},
			}}},
		},
	} {
		f.Add(m.AppendBody(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		var req MetadataReq
		if err := req.DecodeBody(b); err == nil {
			enc := req.AppendBody(nil)
			var req2 MetadataReq
			if err := req2.DecodeBody(enc); err != nil {
				t.Fatalf("canonical metadata request re-decode failed: %v", err)
			}
			if enc2 := req2.AppendBody(nil); !bytes.Equal(enc, enc2) {
				t.Fatalf("unstable metadata request round trip\n %x\n %x", enc, enc2)
			}
		}
		var resp MetadataResp
		if err := resp.DecodeBody(b); err == nil {
			enc := resp.AppendBody(nil)
			var resp2 MetadataResp
			if err := resp2.DecodeBody(enc); err != nil {
				t.Fatalf("canonical metadata response re-decode failed: %v", err)
			}
			if enc2 := resp2.AppendBody(nil); !bytes.Equal(enc, enc2) {
				t.Fatalf("unstable metadata response round trip\n %x\n %x", enc, enc2)
			}
		}
	})
}
