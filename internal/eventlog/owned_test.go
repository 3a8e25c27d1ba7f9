package eventlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/event"
)

// The log copies and owns what it stores: these tests pin that rule, the
// byte-identical segment file format, and what the log retains per event.

// TestAppendNeverAliasesCallerBytes: scribbling over the caller's key and
// value buffers after Append, AppendBatch or AppendReplicated returns
// changes nothing read back, in memory and file-backed, before and after
// a replay.
func TestAppendNeverAliasesCallerBytes(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := DefaultConfig()
			if durable {
				cfg.Dir = t.TempDir()
			}
			l := New(cfg)
			var scribble [][]byte
			buf := func(s string) []byte {
				b := []byte(s)
				scribble = append(scribble, b)
				return b
			}
			if _, err := l.Append(event.Event{Key: buf("k0"), Value: buf("append")}, t0); err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendBatch([]event.Event{{Key: buf("k1"), Value: buf("batch")}}, t0); err != nil {
				t.Fatal(err)
			}
			rep := []event.Event{{Offset: 2, Key: buf("k2"), Value: buf("replicated"), Timestamp: t0}}
			if err := l.AppendReplicated(rep); err != nil {
				t.Fatal(err)
			}
			for _, b := range scribble {
				for i := range b {
					b[i] = 'X'
				}
			}
			check := func(l *Log) {
				t.Helper()
				got, err := l.ReadBudget(0, -1, 0)
				if err != nil || len(got) != 3 {
					t.Fatalf("read: %d events, %v", len(got), err)
				}
				for i, want := range []string{"append", "batch", "replicated"} {
					if string(got[i].Value) != want || string(got[i].Key) != fmt.Sprintf("k%d", i) {
						t.Fatalf("event %d = %q/%q, want k%d/%q: the log aliased the caller's buffer", i, got[i].Key, got[i].Value, i, want)
					}
				}
			}
			check(l)
			l.Close()
			if durable {
				r := New(cfg)
				defer r.Close()
				check(r)
			}
		})
	}
}

// TestReopenServesWhatTheLiveLogServed: after appends across segments, a
// replicated gap, a compaction and a truncation, re-opening the
// directory replays exactly the events, offsets and ranges the live log
// served.
func TestReopenServesWhatTheLiveLogServed(t *testing.T) {
	dir := t.TempDir()
	mut := func(c *Config) { c.SegmentEvents = 4; c.Compact = true }
	l := openDurable(t, dir, mut)
	at := func(i int) time.Time { return persistOrigin.Add(time.Duration(i) * time.Second) }
	for i := 0; i < 14; i++ {
		ev := event.Event{Key: []byte(fmt.Sprintf("key%d", i%3)), Value: []byte(fmt.Sprintf("v%02d", i))}
		if i%4 == 0 {
			ev.Headers = map[string]string{"n": fmt.Sprint(i)}
		}
		if i%5 == 0 {
			ev.Key = nil
		}
		if _, err := l.AppendBatch([]event.Event{ev}, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := []event.Event{
		{Offset: 20, Value: []byte("after-gap-0"), Timestamp: at(20)},
		{Offset: 21, Key: []byte("key1"), Value: []byte("after-gap-1"), Timestamp: at(21)},
	}
	if err := l.AppendReplicated(rep); err != nil {
		t.Fatal(err)
	}
	if l.Compact() == 0 {
		t.Fatal("compaction removed nothing; the fixture exercises no rewrite")
	}
	if err := l.Truncate(21); err != nil {
		t.Fatal(err)
	}
	appendValues(t, l, 3)

	live, err := l.ReadBudget(l.StartOffset(), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	start, end, n, size := l.StartOffset(), l.EndOffset(), l.Len(), l.Bytes()
	var seeks []int64
	for i := 0; i < 26; i++ {
		seeks = append(seeks, l.OffsetForTime(at(i)))
	}
	l.Close()

	r := openDurable(t, dir, mut)
	defer r.Close()
	replayed, err := r.ReadBudget(r.StartOffset(), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.StartOffset() != start || r.EndOffset() != end || r.Len() != n || r.Bytes() != size {
		t.Fatalf("replayed [%d,%d) len %d bytes %d; live [%d,%d) len %d bytes %d",
			r.StartOffset(), r.EndOffset(), r.Len(), r.Bytes(), start, end, n, size)
	}
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d events, live served %d", len(replayed), len(live))
	}
	for i := range live {
		a, b := live[i], replayed[i]
		if a.Offset != b.Offset || !bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) ||
			!a.Timestamp.Equal(b.Timestamp) || !maps.Equal(a.Headers, b.Headers) {
			t.Fatalf("event %d: replayed %+v, live served %+v", i, b, a)
		}
	}
	for i, want := range seeks {
		if got := r.OffsetForTime(at(i)); got != want {
			t.Fatalf("OffsetForTime(origin+%ds) = %d after replay, %d live", i, got, want)
		}
	}
}

// frameFixture hand-builds one record frame as the segment file holds it:
// u32 crc32(IEEE, body) | u32 len(body) | body, where body is
// u64 offset | u32 keyLen | key | u32 valLen | value | i64 unix-nano
// timestamp | u32 headerCount | (u32 kLen | k | u32 vLen | v)*.
func frameFixture(offset int64, key, value string, ts time.Time, headers ...string) []byte {
	be := binary.BigEndian
	body := be.AppendUint64(nil, uint64(offset))
	body = append(be.AppendUint32(body, uint32(len(key))), key...)
	body = append(be.AppendUint32(body, uint32(len(value))), value...)
	body = be.AppendUint64(body, uint64(ts.UnixNano()))
	body = be.AppendUint32(body, uint32(len(headers)/2))
	for _, h := range headers {
		body = append(be.AppendUint32(body, uint32(len(h))), h...)
	}
	frame := be.AppendUint32(nil, crc32.ChecksumIEEE(body))
	frame = be.AppendUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

// TestSegmentFileBytesArePinned: the segment file is byte-identical to
// the hand-built frame encoding, and the segment's in-memory chunks are
// the same bytes.
func TestSegmentFileBytesArePinned(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, nil)
	batch := []event.Event{
		{Key: []byte("k"), Value: []byte("v0"), Headers: map[string]string{"h": "x"}},
		{Value: []byte("v1")},
	}
	if _, err := l.AppendBatch(batch, persistOrigin); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(event.Event{Key: []byte("k2"), Value: []byte("v2")}, persistOrigin.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{
		frameFixture(0, "k", "v0", persistOrigin, "h", "x"),
		frameFixture(1, "", "v1", persistOrigin),
		frameFixture(2, "k2", "v2", persistOrigin.Add(time.Second)),
	}, nil)
	if len(want) != 3*frameHeaderLen+(4+1+4+2+12+10)+(4+4+2+12)+(4+2+4+2+12) {
		t.Fatalf("fixture is %d bytes; the frame layout changed", len(want))
	}
	got, err := os.ReadFile(filepath.Join(dir, segFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment file\n got %x\nwant %x", got, want)
	}
	l.mu.RLock()
	mem := bytes.Join(l.segments[0].chunks, nil)
	l.mu.RUnlock()
	if !bytes.Equal(mem, want) {
		t.Fatalf("in-memory chunks differ from the segment file\n got %x\nwant %x", mem, want)
	}
	l.Close()
}

// BenchmarkAppendRetained gates what the log keeps per event: appending
// 100k 256-byte events, in batches of 64, to an in-memory log may grow
// the live heap by at most 1.15x the events' frame bytes — the frame
// itself plus a 16-byte index record, with slab and slice-growth slack.
// A decoded copy per event (a 112-byte Event beside its bytes) would
// exceed it. It also reports, ungated, the growth for one-event appends,
// where each append's chunk adds a 24-byte slice header.
func BenchmarkAppendRetained(b *testing.B) {
	const events, batch = 100_000, 64
	value := make([]byte, 256)
	evs := make([]event.Event, batch)
	for i := range evs {
		evs[i] = event.Event{Value: value}
	}
	frame := float64(frameHeaderLen + evs[0].MarshaledSize())
	retained := func(per int) float64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		l := New(DefaultConfig())
		for n := 0; n < events; n += per {
			if _, err := l.AppendBatch(evs[:per], t0); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(l)
		return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / events
	}
	perEvent, unbatched := retained(batch), retained(1)
	if perEvent > 1.15*frame {
		b.Fatalf("the log retains %.1f B per %.0f-byte frame, budget %.1f", perEvent, frame, 1.15*frame)
	}
	l := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(evs, t0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perEvent, "retained_B/event")
	b.ReportMetric(unbatched, "retained_B/event_unbatched")
	b.ReportMetric(frame, "frame_B/event")
}
