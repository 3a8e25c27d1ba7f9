package eventlog

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/event"
)

// randomEvent builds an event with a key from a small set (so
// compaction finds superseded records), possibly empty, a value of
// random length, possibly empty, and up to three headers, whose keys or
// values may be empty.
func randomEvent(r *rand.Rand) event.Event {
	var e event.Event
	if r.IntN(3) > 0 {
		e.Key = []byte(fmt.Sprintf("k%d", r.IntN(6)))
	}
	if n := r.IntN(5) * r.IntN(90); n > 0 {
		e.Value = bytes.Repeat([]byte{byte('a' + r.IntN(26))}, n)
	}
	if h := r.IntN(6) - 2; h > 0 {
		e.Headers = make(map[string]string, h)
		for i := 0; i < h; i++ {
			k, v := fmt.Sprintf("h%d", i), fmt.Sprintf("v%d", r.IntN(100))
			switch r.IntN(4) {
			case 0:
				k = ""
			case 1:
				v = ""
			}
			e.Headers[k] = v
		}
	}
	return e
}

// buildRandomLog applies steps random operations to l: batch appends
// at advancing times, replicated appends that skip offsets, compaction,
// truncation and retention. Small segments make rolls frequent.
func buildRandomLog(t testing.TB, l *Log, r *rand.Rand, steps int) {
	t.Helper()
	now := t0
	for i := 0; i < steps; i++ {
		now = now.Add(time.Duration(1+r.IntN(1000)) * time.Millisecond)
		switch op := r.IntN(10); {
		case op < 6:
			evs := make([]event.Event, 1+r.IntN(12))
			for j := range evs {
				evs[j] = randomEvent(r)
			}
			if _, err := l.AppendBatch(evs, now); err != nil {
				t.Fatal(err)
			}
		case op == 6:
			// A follower's append past a leader-side hole.
			evs := make([]event.Event, 1+r.IntN(4))
			next := l.EndOffset() + int64(r.IntN(3))
			for j := range evs {
				evs[j] = randomEvent(r)
				evs[j].Offset, evs[j].Timestamp = next+int64(j), now
			}
			if err := l.AppendReplicated(evs); err != nil {
				t.Fatal(err)
			}
		case op == 7:
			l.Compact()
		case op == 8:
			if start, end := l.StartOffset(), l.EndOffset(); end > start {
				if err := l.Truncate(start + r.Int64N(end-start)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			l.EnforceRetention(now)
		}
	}
}

// decodeEncoded decodes an encoded read the way a wire peer does:
// event.AppendUnmarshalBatch over the payload, offsets from the runs.
func decodeEncoded(t testing.TB, b *Encoded) []event.Event {
	t.Helper()
	evs, used, err := event.AppendUnmarshalBatch(nil, b.Payload, b.Events)
	if err != nil || used != len(b.Payload) {
		t.Fatalf("payload of %d events: %d of %d bytes decoded: %v", b.Events, used, len(b.Payload), err)
	}
	i := 0
	for k, run := range b.Runs {
		if run.Count <= 0 || (k > 0 && run.Start <= b.Runs[k-1].Start+b.Runs[k-1].Count) {
			t.Fatalf("runs %v are not maximal ascending runs", b.Runs)
		}
		for o := run.Start; o < run.Start+run.Count; o++ {
			if i == len(evs) {
				t.Fatalf("runs %v cover more than %d events", b.Runs, len(evs))
			}
			evs[i].Offset = o
			i++
		}
	}
	if i != len(evs) {
		t.Fatalf("runs %v cover %d of %d events", b.Runs, i, len(evs))
	}
	return evs
}

// checkEncodedRead asserts that ReadEncoded serves what ReadBudgetInto
// serves for the same arguments: the same error, the same events once
// decoded, and a window charge equal to the session batch size of those
// events (payload bytes plus one per event). Events are compared
// decoded, not as bytes: header map order may differ between encodings.
func checkEncodedRead(t testing.TB, l *Log, offset int64, max, maxBytes int) {
	t.Helper()
	want, werr := l.ReadBudgetInto(offset, max, maxBytes, nil)
	var b Encoded
	gerr := l.ReadEncoded(offset, max, maxBytes, &b)
	if (werr == nil) != (gerr == nil) || (werr != nil && errors.Is(werr, ErrOffsetOutOfRange) != errors.Is(gerr, ErrOffsetOutOfRange)) {
		t.Fatalf("read(%d, %d, %d): ReadBudgetInto error %v, ReadEncoded error %v", offset, max, maxBytes, werr, gerr)
	}
	if werr != nil {
		if b.Events != 0 || len(b.Payload) != 0 || len(b.Runs) != 0 {
			t.Fatalf("read(%d, %d, %d) failed but appended %d events", offset, max, maxBytes, b.Events)
		}
		return
	}
	got := decodeEncoded(t, &b)
	if len(got) != len(want) {
		t.Fatalf("read(%d, %d, %d): %d encoded events, ReadBudgetInto read %d", offset, max, maxBytes, len(got), len(want))
	}
	charge, size := len(want), 0
	for i := range want {
		w, g := &want[i], &got[i]
		if g.Offset != w.Offset || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) ||
			!g.Timestamp.Equal(w.Timestamp) || !maps.Equal(g.Headers, w.Headers) {
			t.Fatalf("read(%d, %d, %d) event %d: encoded %+v, ReadBudgetInto %+v", offset, max, maxBytes, i, *g, *w)
		}
		size += w.Size()
	}
	charge += size
	if b.Bytes != size || b.Charge() != charge {
		t.Fatalf("read(%d, %d, %d): bytes %d charge %d, want %d and %d", offset, max, maxBytes, b.Bytes, b.Charge(), size, charge)
	}
	dec, err := b.Decode(nil)
	if err != nil || len(dec) != len(got) {
		t.Fatalf("Decode: %d events, %v; want %d", len(dec), err, len(got))
	}
	for i := range dec {
		if dec[i].Offset != got[i].Offset || !bytes.Equal(dec[i].Value, got[i].Value) {
			t.Fatalf("Decode event %d: %+v, want %+v", i, dec[i], got[i])
		}
	}
}

// budgets are the (max, maxBytes) pairs every offset is read with: an
// unbounded read, a zero count, a one-byte budget that only the first
// record may exceed, and budgets falling inside and across records.
var budgets = [][2]int{{-1, 0}, {0, 0}, {1, 0}, {5, 0}, {-1, 1}, {3, 1}, {-1, 40}, {7, 150}, {-1, 400}, {64, 1 << 20}}

// checkAllOffsets runs checkEncodedRead for every budget at every
// offset from one below the log start to one past its end.
func checkAllOffsets(t testing.TB, l *Log) {
	t.Helper()
	for off := l.StartOffset() - 1; off <= l.EndOffset()+1; off++ {
		for _, b := range budgets {
			checkEncodedRead(t, l, off, b[0], b[1])
		}
	}
}

// TestReadEncodedMatchesReadBudget: over random logs — headers with
// empty keys and values, segment rolls, compaction holes, truncation,
// retention and replicated gaps — the encoded read of every offset and
// budget decodes to exactly what ReadBudgetInto returns.
func TestReadEncodedMatchesReadBudget(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		cfg := Config{SegmentBytes: 200 + r.IntN(800), SegmentEvents: 3 + r.IntN(20), Compact: true}
		if seed%2 == 0 {
			cfg.RetentionBytes = int64(500 + r.IntN(2000))
		}
		l := New(cfg)
		buildRandomLog(t, l, r, 40)
		checkAllOffsets(t, l)
	}
}

// TestReadEncodedFirstRecordOverBudget: a first record larger than
// maxBytes is still served, alone.
func TestReadEncodedFirstRecordOverBudget(t *testing.T) {
	l := New(Config{})
	big := event.Event{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 500), Headers: map[string]string{"a": "b", "": "empty-key", "empty-value": ""}}
	if _, err := l.AppendBatch([]event.Event{big, ev("x"), ev("y")}, t0); err != nil {
		t.Fatal(err)
	}
	var b Encoded
	if err := l.ReadEncoded(0, -1, 100, &b); err != nil || b.Events != 1 || b.Bytes != big.Size() {
		t.Fatalf("over-budget first record: %d events, %d bytes, %v; want it alone (%d bytes)", b.Events, b.Bytes, err, big.Size())
	}
	checkAllOffsets(t, l)
}

// TestReadEncodedAtRetentionStart reads from exactly the first retained
// offset after retention dropped the segments before it.
func TestReadEncodedAtRetentionStart(t *testing.T) {
	l := New(Config{SegmentEvents: 4, RetentionBytes: 30})
	for i := 0; i < 20; i++ {
		if _, err := l.AppendBatch([]event.Event{ev(fmt.Sprintf("value-%02d", i))}, t0); err != nil {
			t.Fatal(err)
		}
	}
	if l.EnforceRetention(t0) == 0 || l.StartOffset() == 0 {
		t.Fatalf("retention dropped nothing; start %d", l.StartOffset())
	}
	var b Encoded
	if err := l.ReadEncoded(l.StartOffset(), -1, 0, &b); err != nil || b.Events == 0 || b.Runs[0].Start != l.StartOffset() {
		t.Fatalf("read at the retention start %d: %d events, runs %v, %v", l.StartOffset(), b.Events, b.Runs, err)
	}
	if err := l.ReadEncoded(l.StartOffset()-1, -1, 0, &b); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read below the retention start: %v; want ErrOffsetOutOfRange", err)
	}
	checkAllOffsets(t, l)
}

// TestReadEncodedAfterReplay: a file-backed log reopened from its
// segment files serves the same encoded reads as the decoded ones, and
// the same as before the restart.
func TestReadEncodedAfterReplay(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewPCG(3, 11))
	cfg := Config{Dir: dir, SegmentBytes: 400, SegmentEvents: 8, Compact: true}
	l := New(cfg)
	buildRandomLog(t, l, r, 30)
	var before Encoded
	if err := l.ReadEncoded(l.StartOffset(), -1, 0, &before); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = New(cfg)
	defer l.Close()
	var after Encoded
	if err := l.ReadEncoded(l.StartOffset(), -1, 0, &after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Payload, after.Payload) || before.Events != after.Events || before.Bytes != after.Bytes {
		t.Fatalf("replayed log serves %d events / %d bytes, live log served %d / %d", after.Events, len(after.Payload), before.Events, len(before.Payload))
	}
	checkAllOffsets(t, l)
}

// TestReadEncodedAppends: a read appends to what b already holds, and
// Reset empties b for reuse.
func TestReadEncodedAppends(t *testing.T) {
	l := New(Config{})
	if _, err := l.AppendBatch([]event.Event{ev("a"), ev("b"), ev("c")}, t0); err != nil {
		t.Fatal(err)
	}
	var b Encoded
	for _, off := range []int64{0, 1} {
		if err := l.ReadEncoded(off, 1, 0, &b); err != nil {
			t.Fatal(err)
		}
	}
	if b.Events != 2 || len(b.Runs) != 1 || b.Runs[0] != (Run{Start: 0, Count: 2}) {
		t.Fatalf("two appended reads: %d events, runs %v", b.Events, b.Runs)
	}
	b.Reset()
	if b.Events != 0 || b.Bytes != 0 || len(b.Payload) != 0 || len(b.Runs) != 0 {
		t.Fatalf("Reset left %+v", b)
	}
}

// FuzzReadEncodedEquivalence builds a random log from the seed and
// checks the encoded read against ReadBudgetInto at every offset, with
// the fuzzed budget as well as the fixed ones.
func FuzzReadEncodedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(20), int16(-1), int16(0))
	f.Add(uint64(2), uint8(60), int16(3), int16(1))
	f.Add(uint64(9), uint8(35), int16(0), int16(250))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, max, maxBytes int16) {
		r := rand.New(rand.NewPCG(seed, uint64(steps)))
		l := New(Config{SegmentBytes: 100 + r.IntN(600), SegmentEvents: 2 + r.IntN(12), Compact: true, RetentionBytes: int64(r.IntN(3000))})
		buildRandomLog(t, l, r, int(steps%80))
		for off := l.StartOffset() - 1; off <= l.EndOffset()+1; off++ {
			checkEncodedRead(t, l, off, int(max), int(maxBytes))
		}
		checkEncodedRead(t, l, l.StartOffset(), -1, 0)
	})
}
