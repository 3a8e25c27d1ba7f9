package wire

import (
	"bufio"
	"bytes"
	"maps"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// servedEvents are the fixture events: one with two headers, one with
// an empty key and an empty header value, plain ones around them.
func servedEvents() []event.Event {
	return []event.Event{
		{Key: []byte("k1"), Value: []byte("plain")},
		{Key: []byte("k2"), Value: []byte(`{"run":7}`), Headers: map[string]string{"experiment": "e-42", "provenance": "beamline-3"}},
		{Value: []byte("no key"), Headers: map[string]string{"empty": ""}},
		{Key: []byte("k3")},
	}
}

// produceServed creates topic with one partition and appends the
// fixture events in two batches.
func produceServed(t *testing.T, f *broker.Fabric, topic string) {
	t.Helper()
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	evs := servedEvents()
	for _, batch := range [][]event.Event{evs[:2], evs[2:]} {
		if _, err := f.Produce("", topic, 0, batch, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
}

// sendFrame writes one request frame on a raw negotiated connection.
func sendFrame(t testing.TB, conn net.Conn, corr uint64, m ReqMsg) {
	t.Helper()
	frame, err := appendFrameRequestV2(nil, corr, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// readBatch reads frames until one with op arrives, decodes its header
// into resp and its payload into events the way the client does
// (event.AppendUnmarshalBatch, then Stamp).
func readBatch(t testing.TB, rd *bufio.Reader, op uint8, resp *FetchResp, topic string) []event.Event {
	t.Helper()
	for {
		var hdr []byte
		hb, err := readHeaderInto(rd, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadPayloadInto(rd, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(hb) == 0 || hb[0] != op {
			continue // metadata pushes, session open and sub answers
		}
		if _, _, err := DecodeResponseV2(hb, resp); err != nil {
			t.Fatal(err)
		}
		evs, used, err := event.AppendUnmarshalBatch(nil, payload, resp.NumEvents)
		if err != nil || used != len(payload) {
			t.Fatalf("payload of %d events: %d of %d bytes decoded: %v", resp.NumEvents, used, len(payload), err)
		}
		resp.Stamp(evs, topic, 0)
		return evs
	}
}

// sameEvents fails unless got and want match field by field (headers
// compared as maps: their encoded order is not fixed).
func sameEvents(t *testing.T, path string, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s served %d events, the decoded fetch %d", path, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Topic != w.Topic || g.Partition != w.Partition || g.Offset != w.Offset ||
			!bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) ||
			!g.Timestamp.Equal(w.Timestamp) || !maps.Equal(g.Headers, w.Headers) {
			t.Fatalf("%s event %d: %+v; the decoded fetch has %+v", path, i, *g, *w)
		}
	}
}

// TestServedBytesMatchDecodedFetch: an OpFetch and a session push,
// served from the log's stored bytes through a live server, decode to
// the events, high watermark and start offset the in-process decoded
// fetch returns — headers included.
func TestServedBytesMatchDecodedFetch(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	produceServed(t, f, "served")
	want, err := f.Fetch("", "served", 0, 0, 0, 0)
	if err != nil || len(want.Events) != len(servedEvents()) {
		t.Fatalf("decoded fetch: %d events, %v", len(want.Events), err)
	}
	conn, rd := dialNegotiated(t, addr)

	sendFrame(t, conn, 2, &FetchReq{Topic: "served", MaxEvents: 100, MaxBytes: 1 << 20})
	var resp FetchResp
	got := readBatch(t, rd, v2OpFetch, &resp, "served")
	sameEvents(t, "OpFetch", got, want.Events)
	if resp.HighWatermark != want.HighWatermark || resp.StartOffset != want.StartOffset {
		t.Fatalf("OpFetch hw %d start %d; the decoded fetch has %d and %d", resp.HighWatermark, resp.StartOffset, want.HighWatermark, want.StartOffset)
	}

	sendFrame(t, conn, 3, &SessionOpenReq{ID: 1, CreditBytes: 1 << 20})
	sendFrame(t, conn, 4, &SessionSubReq{SessionID: 1, SubID: 1, Topic: "served"})
	var pushed []event.Event
	for len(pushed) < len(want.Events) {
		var push FetchResp
		pushed = append(pushed, readBatch(t, rd, v2OpSessionBatch, &push, "served")...)
		if push.HighWatermark != want.HighWatermark || push.StartOffset != want.StartOffset {
			t.Fatalf("session push hw %d start %d; the decoded fetch has %d and %d", push.HighWatermark, push.StartOffset, want.HighWatermark, want.StartOffset)
		}
	}
	sameEvents(t, "session push", pushed, want.Events)
}

// TestServedBytesChargeBalancesGrants: the pump charges a pushed batch
// from the log read, the client grants sessionBatchSize of the decoded
// batch, and the two are equal. The window is the client's figure for
// the whole log. The push uses it up exactly: the pump stalls on credit
// (it did not charge less), and a one-byte grant then releases the next
// append (it did not charge more).
func TestServedBytesChargeBalancesGrants(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	produceServed(t, f, "charge")
	conn, rd := dialNegotiated(t, addr)
	window := sessionBatchSize(servedEvents())

	sendFrame(t, conn, 2, &SessionOpenReq{ID: 1, CreditBytes: window})
	sendFrame(t, conn, 3, &SessionSubReq{SessionID: 1, SubID: 1, Topic: "charge"})
	var resp FetchResp
	first := readBatch(t, rd, v2OpSessionBatch, &resp, "charge")
	if len(first) != len(servedEvents()) || sessionBatchSize(first) != window {
		t.Fatalf("first push: %d events charging %d; want all %d in a window of %d", len(first), sessionBatchSize(first), len(servedEvents()), window)
	}
	for deadline := time.Now().Add(5 * time.Second); s.met().creditStalls.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pump never ran out of window: it charged less than the client's sessionBatchSize")
		}
	}
	if _, err := f.Produce("", "charge", 0, []event.Event{{Value: []byte("after the stall")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, 0, &SessionCreditReq{SessionID: 1, CreditBytes: 1})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	next := readBatch(t, rd, v2OpSessionBatch, &resp, "charge")
	if len(next) != 1 || next[0].Offset != int64(len(first)) {
		t.Fatalf("after a one-byte grant: %+v; want the one event appended at %d", next, len(first))
	}
}

// TestServedBytesFabricMetrics: a fetch served as stored bytes records
// what the decoded fetch records — fabric.fetched and the hot-path
// bytes_out, fetch_batch_events and fetch_ns — for OpFetch and for a
// session push alike.
func TestServedBytesFabricMetrics(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	produceServed(t, f, "metered")
	fetched := f.Metrics.Counter("fabric.fetched")
	bytesOut := f.Metrics.Counter("fabric.bytes_out")
	batch := f.Metrics.BucketHist("fabric.fetch_batch_events")
	fetchNs := f.Metrics.BucketHist("fabric.fetch_ns")
	type reading struct{ fetched, bytesOut, batches, batchSum, timed int64 }
	read := func() reading {
		return reading{fetched.Value(), bytesOut.Value(), batch.Count(), batch.Sum(), fetchNs.Count()}
	}
	delta := func(a, b reading) reading {
		return reading{b.fetched - a.fetched, b.bytesOut - a.bytesOut, b.batches - a.batches, b.batchSum - a.batchSum, b.timed - a.timed}
	}

	r0 := read()
	if _, err := f.Fetch("", "metered", 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	r1 := read()
	want := delta(r0, r1)
	n := int64(len(servedEvents()))
	if want.fetched != n || want.batches != 1 || want.batchSum != n || want.timed != 1 || want.bytesOut == 0 {
		t.Fatalf("decoded fetch recorded %+v", want)
	}

	conn, rd := dialNegotiated(t, addr)
	sendFrame(t, conn, 2, &FetchReq{Topic: "metered", MaxEvents: 100, MaxBytes: 1 << 20})
	var resp FetchResp
	readBatch(t, rd, v2OpFetch, &resp, "metered")
	r2 := read()
	if got := delta(r1, r2); got != want {
		t.Fatalf("OpFetch recorded %+v; the decoded fetch recorded %+v", got, want)
	}

	sendFrame(t, conn, 3, &SessionOpenReq{ID: 1, CreditBytes: 1 << 20})
	sendFrame(t, conn, 4, &SessionSubReq{SessionID: 1, SubID: 1, Topic: "metered"})
	if got := readBatch(t, rd, v2OpSessionBatch, &resp, "metered"); int64(len(got)) != n {
		t.Fatalf("session pushed %d of %d events in its first batch", len(got), n)
	}
	// The pump records its read before it queues the batch; later dry
	// reads add only empty observations.
	got := delta(r2, read())
	if got.fetched != want.fetched || got.bytesOut != want.bytesOut || got.batchSum != want.batchSum || got.batches < 1 || got.timed != got.batches {
		t.Fatalf("session push recorded %+v; the decoded fetch recorded %+v", got, want)
	}
}
