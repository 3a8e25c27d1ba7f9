package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/pattern"
	"repro/internal/wire"
)

// The layer probes time the public functions of one layer in isolation,
// on batches built by the same seeded generator the workloads use. They
// give each layer's cost per event when nothing contends for the
// machine; the traced run's spans and stats say what the layer costs
// inside the composed path.

const (
	probeBatch  = 256
	probeRounds = 5
	// probeRoundTime is how long one timing round runs; a probe reports
	// the median of probeRounds rounds.
	probeRoundTime = 30 * time.Millisecond
)

// perCall returns the median over rounds of fn's mean nanoseconds per
// call.
func perCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= probeRoundTime/2 {
			break
		}
		n *= 2
	}
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(rounds)
}

// probeBatches are the two batch shapes the codec probes alternate
// over: 256 events of 256 B and of 1 KB, the workloads' two sizes.
func probeBatches(g *generator) [][]event.Event {
	var out [][]event.Event
	for _, size := range []int{steadyValueSize, pacedValueSize} {
		evs := batchOf(g.keys(probeBatch, steadyKeySize), g.values(probeBatch, size))
		stampValues(evs, 0, 0)
		for i := range evs {
			evs[i].Offset = int64(i)
		}
		out = append(out, evs)
	}
	return out
}

func runProbes(seed int64) (map[string]float64, error) {
	g := newGenerator(seed)
	batches := probeBatches(g)
	out := map[string]float64{}
	probeEvent(batches, out)
	if err := probeWireCodec(batches[0], out); err != nil {
		return nil, err
	}
	if err := probeBroker(batches[0], out); err != nil {
		return nil, err
	}
	if err := probeEventlog(batches[0], out); err != nil {
		return nil, err
	}
	if err := probePattern(g, out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeEvent times the event batch codec.
func probeEvent(batches [][]event.Event, out map[string]float64) {
	var buf []byte
	var payloads [][]byte
	events := 0
	for _, evs := range batches {
		payloads = append(payloads, event.AppendBatchMarshal(nil, evs))
		events += len(evs)
	}
	out["event.encode_ns_per_event"] = perCall(func() {
		for _, evs := range batches {
			buf = event.AppendBatchMarshal(buf[:0], evs)
		}
	}) / float64(events)
	var dst []event.Event
	decode := func() {
		for i, p := range payloads {
			dst, _, _ = event.AppendUnmarshalBatch(dst[:0], p, len(batches[i])) // payloads were just encoded: cannot fail
		}
	}
	out["event.decode_ns_per_event"] = perCall(decode) / float64(events)
	out["event.decode_allocs_per_event"] = testing.AllocsPerRun(20, decode) / float64(events)
}

// probeWireCodec times the v2 header codecs of the two hot messages
// (per message; the event payload is the event codec's).
func probeWireCodec(evs []event.Event, out map[string]float64) error {
	req := wire.ProduceReq{Topic: "steady", Partition: 3, Acks: int(broker.AcksLeader), NumEvents: len(evs)}
	var buf []byte
	out["wire.codec.produce_req_encode_ns"] = perCall(func() { buf = wire.AppendRequestV2(buf[:0], 42, &req) })
	var derr error
	var got wire.ProduceReq
	hdr := wire.AppendRequestV2(nil, 42, &req)
	out["wire.codec.produce_req_decode_ns"] = perCall(func() {
		if _, err := wire.DecodeRequestV2(hdr, &got); err != nil {
			derr = err
		}
	})
	if derr != nil || got != req {
		return fmt.Errorf("probe: ProduceReq round trip: %+v, %v", got, derr)
	}

	op := (&wire.FetchReq{}).V2Op()
	resp := wire.FetchResp{NumEvents: len(evs), HighWatermark: int64(len(evs))}
	out["wire.codec.fetch_resp_encode_ns"] = perCall(func() {
		resp.SetOffsets(evs)
		buf = wire.AppendResponseV2(buf[:0], op, 42, &resp)
	})
	hdr = wire.AppendResponseV2(nil, op, 42, &resp)
	stamped := append([]event.Event(nil), evs...)
	var gotResp wire.FetchResp
	out["wire.codec.fetch_resp_decode_ns"] = perCall(func() {
		if _, _, err := wire.DecodeResponseV2(hdr, &gotResp); err != nil {
			derr = err
		}
		gotResp.Stamp(stamped, "steady", 3)
	})
	if derr != nil || gotResp.NumEvents != len(evs) || stamped[len(evs)-1].Offset != int64(len(evs)-1) {
		return fmt.Errorf("probe: FetchResp round trip: %d events, %v", gotResp.NumEvents, derr)
	}
	return nil
}

// probeBroker times Fabric.Produce and Fabric.FetchInto on a one-broker
// in-memory fabric.
func probeBroker(evs []event.Event, out map[string]float64) error {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(1, 2, 8); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if _, err := f.CreateTopic("probe", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 1}); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var perr error
	out["broker.produce_ns_per_event"] = perCall(func() {
		if _, err := f.Produce("", "probe", 0, evs, broker.AcksLeader); err != nil {
			perr = err
		}
	}) / float64(len(evs))
	if perr != nil {
		return fmt.Errorf("probe: produce: %w", perr)
	}
	end, err := f.EndOffset("probe", 0)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var dst []event.Event
	var off int64
	out["broker.fetch_ns_per_event"] = perCall(func() {
		res, err := f.FetchInto("", "probe", 0, off, len(evs), 1<<30, dst[:0])
		if err != nil || len(res.Events) != len(evs) {
			perr = fmt.Errorf("fetch at %d: %d events, %v", off, len(res.Events), err)
		}
		dst = res.Events
		if off += int64(len(evs)); off+int64(len(evs)) > end {
			off = 0
		}
	}) / float64(len(evs))
	if perr != nil {
		return fmt.Errorf("probe: %w", perr)
	}
	return nil
}

// probeEventlog times the partition log: appends in memory, to segment
// files and with fsync, sequential reads, and replay of the directory
// just written.
func probeEventlog(evs []event.Event, out map[string]float64) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	dir, err := os.MkdirTemp(scratchRoot, "probe-")
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer os.RemoveAll(dir)
	now := time.Now()
	n := float64(len(evs))
	var aerr error
	appendTo := func(l *eventlog.Log) func() {
		return func() {
			if _, err := l.AppendBatch(evs, now); err != nil {
				aerr = err
			}
		}
	}

	mem := eventlog.New(eventlog.DefaultConfig())
	out["eventlog.append_mem_ns_per_event"] = perCall(appendTo(mem)) / n
	var dst []event.Event
	var off int64
	end := mem.EndOffset()
	out["eventlog.read_ns_per_event"] = perCall(func() {
		got, err := mem.ReadBudgetInto(off, len(evs), 1<<30, dst[:0])
		if err != nil || len(got) != len(evs) {
			aerr = fmt.Errorf("read at %d: %d events, %v", off, len(got), err)
		}
		dst = got
		if off += int64(len(evs)); off+int64(len(evs)) > end {
			off = 0
		}
	}) / n
	mem.Close()

	open := func(sub string, fsync bool) (*eventlog.Log, error) {
		cfg := eventlog.DefaultConfig()
		cfg.Dir, cfg.Fsync = filepath.Join(dir, sub), fsync
		return eventlog.Open(cfg)
	}
	file, err := open("file", false)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	out["eventlog.append_file_ns_per_event"] = perCall(appendTo(file)) / n
	written := file.EndOffset()
	file.Close()
	var user int64
	for i := range evs {
		user += int64(len(evs[i].Key) + len(evs[i].Value))
	}
	disk, err := dirBytes(filepath.Join(dir, "file"))
	if err != nil {
		return err
	}
	out["eventlog.disk_bytes_per_user_byte"] = float64(disk) / (float64(user) * float64(written) / n)

	t0 := time.Now()
	replayed, err := open("file", false)
	if err != nil {
		return fmt.Errorf("probe: replay: %w", err)
	}
	out["eventlog.replay_ns_per_event"] = float64(time.Since(t0)) / float64(written)
	if replayed.EndOffset() != written {
		aerr = fmt.Errorf("replay recovered %d of %d events", replayed.EndOffset(), written)
	}
	replayed.Close()

	synced, err := open("fsync", true)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	out["eventlog.append_fsync_ns_per_event"] = perCall(appendTo(synced)) / n
	synced.Close()
	if aerr != nil {
		return fmt.Errorf("probe: eventlog: %w", aerr)
	}
	return nil
}

// probePattern times compiling the trigger pattern and matching the
// generated documents against it.
func probePattern(g *generator, out map[string]float64) error {
	docs, err := g.fsDocs(probeBatch)
	if err != nil {
		return err
	}
	matched := 0
	out["pattern.match_ns_per_event"] = perCall(func() {
		pat, err := pattern.Compile([]byte(triggerPattern))
		if err != nil {
			return
		}
		matched = 0
		for _, d := range docs {
			if pat.MatchJSON(d) {
				matched++
			}
		}
	}) / float64(len(docs))
	if matched != len(docs)/len(fsOps) {
		return fmt.Errorf("probe: pattern matched %d of %d documents, want one in %d", matched, len(docs), len(fsOps))
	}
	return nil
}
