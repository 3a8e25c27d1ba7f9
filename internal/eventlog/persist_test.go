package eventlog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/event"
)

var persistOrigin = time.Unix(1_700_000_000, 0)

func openDurable(t *testing.T, dir string, mut func(*Config)) *Log {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Dir = dir
	if mut != nil {
		mut(&cfg)
	}
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func appendValues(t *testing.T, l *Log, n int) {
	t.Helper()
	evs := make([]event.Event, n)
	start := l.EndOffset()
	for i := range evs {
		evs[i] = event.Event{Value: []byte(fmt.Sprintf("v%03d", start+int64(i)))}
	}
	if _, err := l.AppendBatch(evs, persistOrigin.Add(time.Duration(start)*time.Second)); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
}

func checkDense(t *testing.T, l *Log, from, to int64) {
	t.Helper()
	evs, err := l.Read(from, int(to-from))
	if err != nil {
		t.Fatalf("Read(%d): %v", from, err)
	}
	if int64(len(evs)) != to-from {
		t.Fatalf("read %d events from %d; want %d", len(evs), from, to-from)
	}
	for i, ev := range evs {
		off := from + int64(i)
		if ev.Offset != off || string(ev.Value) != fmt.Sprintf("v%03d", off) {
			t.Fatalf("event %d: offset %d value %q", i, ev.Offset, ev.Value)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, nil)
	evs := []event.Event{
		{Key: []byte("k"), Value: []byte("v000"), Headers: map[string]string{"h": "x"}},
		{Value: []byte("v001")},
	}
	if _, err := l.AppendBatch(evs, persistOrigin); err != nil {
		t.Fatal(err)
	}
	appendValues(t, l, 3)
	l.Close()

	r := openDurable(t, dir, nil)
	defer r.Close()
	if r.StartOffset() != 0 || r.EndOffset() != 5 {
		t.Fatalf("replayed range [%d,%d)", r.StartOffset(), r.EndOffset())
	}
	checkDense(t, r, 1, 5)
	got, err := r.Read(0, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("read first: %v", err)
	}
	if string(got[0].Key) != "k" || got[0].Headers["h"] != "x" || !got[0].Timestamp.Equal(persistOrigin) {
		t.Fatalf("first record lost fields: %+v", got[0])
	}
	// The reopened log keeps appending where the old one stopped.
	appendValues(t, r, 2)
	checkDense(t, r, 5, 7)
}

func TestReplaySpansSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	for i := 0; i < 3; i++ {
		appendValues(t, l, 4)
	}
	appendValues(t, l, 2) // 14 records: 3 sealed files + active
	l.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) < 3 {
		t.Fatalf("expected multiple segment files, got %v", files)
	}
	r := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	defer r.Close()
	if r.EndOffset() != 14 {
		t.Fatalf("replayed end = %d", r.EndOffset())
	}
	checkDense(t, r, 0, 14)
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, nil)
	appendValues(t, l, 6)
	l.Close()
	// Crash mid-write: chop the file inside the last frame.
	path := filepath.Join(dir, segFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, nil)
	if r.EndOffset() != 5 {
		t.Fatalf("end after torn tail = %d; want 5", r.EndOffset())
	}
	checkDense(t, r, 0, 5)
	// The torn bytes are gone from disk too: appending and replaying
	// again yields a clean, contiguous log.
	appendValues(t, r, 1)
	r.Close()
	r2 := openDurable(t, dir, nil)
	defer r2.Close()
	checkDense(t, r2, 0, 6)
}

func TestReplayCorruptMiddleDropsLaterFiles(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	appendValues(t, l, 10) // files at base 0, 4, 8
	l.Close()
	// Flip a byte inside the second file's first frame body.
	path := filepath.Join(dir, segFileName(4))
	data, _ := os.ReadFile(path)
	data[frameHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	defer r.Close()
	// Replay keeps the intact prefix and discards everything from the
	// corrupt frame on — including the file at base 8 — so offsets
	// stay contiguous.
	if r.EndOffset() != 4 {
		t.Fatalf("end after mid-log corruption = %d; want 4", r.EndOffset())
	}
	checkDense(t, r, 0, 4)
	if _, err := os.Stat(filepath.Join(dir, segFileName(8))); !os.IsNotExist(err) {
		t.Fatalf("orphaned later segment file survived: %v", err)
	}
}

func TestTruncatePersists(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	appendValues(t, l, 10)
	if err := l.Truncate(6); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if l.EndOffset() != 6 {
		t.Fatalf("end after truncate = %d", l.EndOffset())
	}
	checkDense(t, l, 0, 6)
	// New appends continue from the cut.
	appendValues(t, l, 2)
	checkDense(t, l, 0, 8)
	l.Close()
	r := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	defer r.Close()
	if r.EndOffset() != 8 {
		t.Fatalf("replayed end after truncate = %d; want 8", r.EndOffset())
	}
	checkDense(t, r, 0, 8)
}

func TestRetentionDeletesSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, func(c *Config) {
		c.SegmentEvents = 4
		c.Retention = time.Minute
	})
	appendValues(t, l, 9) // one batch, rolls files at bases 0, 4, 8
	deleted := l.EnforceRetention(persistOrigin.Add(10 * time.Minute))
	if deleted != 8 {
		t.Fatalf("retention deleted %d; want 8", deleted)
	}
	if l.StartOffset() != 8 {
		t.Fatalf("start after retention = %d", l.StartOffset())
	}
	for _, base := range []int64{0, 4} {
		if _, err := os.Stat(filepath.Join(dir, segFileName(base))); !os.IsNotExist(err) {
			t.Fatalf("expired segment file %d survived: %v", base, err)
		}
	}
	l.Close()
	r := openDurable(t, dir, func(c *Config) { c.SegmentEvents = 4 })
	defer r.Close()
	if r.StartOffset() != 8 || r.EndOffset() != 9 {
		t.Fatalf("replayed range after retention [%d,%d)", r.StartOffset(), r.EndOffset())
	}
}

func TestAppendReplicatedPreservesOffsetsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	l := openDurable(t, dir, nil)
	evs := make([]event.Event, 5)
	for i := range evs {
		evs[i] = event.Event{
			Offset:    int64(i),
			Value:     []byte(fmt.Sprintf("v%03d", i)),
			Timestamp: persistOrigin.Add(time.Duration(i) * time.Second),
		}
	}
	if err := l.AppendReplicated(evs); err != nil {
		t.Fatal(err)
	}
	// Records below the log end are duplicates of what is already
	// replicated: ignored, not re-appended.
	if err := l.AppendReplicated(evs[2:4]); err != nil {
		t.Fatal(err)
	}
	if l.EndOffset() != 5 {
		t.Fatalf("end = %d", l.EndOffset())
	}
	l.Close()
	r := openDurable(t, dir, nil)
	defer r.Close()
	checkDense(t, r, 0, 5)
	if got, _ := r.Read(3, 1); !got[0].Timestamp.Equal(persistOrigin.Add(3 * time.Second)) {
		t.Fatalf("leader timestamp lost: %v", got[0].Timestamp)
	}
}

func TestAppendReplicatedGapRollsSegment(t *testing.T) {
	// A follower fetching above a tiered-away gap lands records at a
	// base offset past its local end: the log seals the active segment
	// and rolls a fresh one at the gap target, keeping the dense-active
	// invariant. Reads inside the gap skip forward to the next record,
	// exactly like compaction holes.
	dir := t.TempDir()
	l := openDurable(t, dir, nil)
	appendValues(t, l, 3)
	gap := []event.Event{
		{Offset: 10, Value: []byte("v010"), Timestamp: persistOrigin},
		{Offset: 11, Value: []byte("v011"), Timestamp: persistOrigin},
	}
	if err := l.AppendReplicated(gap); err != nil {
		t.Fatal(err)
	}
	if l.EndOffset() != 12 {
		t.Fatalf("end after gap = %d", l.EndOffset())
	}
	if got, err := l.Read(5, 1); err != nil || len(got) != 1 || got[0].Offset != 10 {
		t.Fatalf("read inside gap: %v, %v", got, err)
	}
	got, err := l.Read(10, 5)
	if err != nil || len(got) != 2 || got[0].Offset != 10 {
		t.Fatalf("read past gap: %d events, %v", len(got), err)
	}
	l.Close()
	r := openDurable(t, dir, nil)
	defer r.Close()
	if r.EndOffset() != 12 {
		t.Fatalf("replayed end after gap = %d", r.EndOffset())
	}
	got, err = r.Read(10, 5)
	if err != nil || len(got) != 2 || string(got[1].Value) != "v011" {
		t.Fatalf("replayed gap read: %d events, %v", len(got), err)
	}
}

func TestInMemoryLogUnaffectedByDurableAPIs(t *testing.T) {
	l, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendValues(t, l, 4)
	if l.Dir() != "" {
		t.Fatalf("in-memory log has dir %q", l.Dir())
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync on in-memory log: %v", err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatalf("Truncate on in-memory log: %v", err)
	}
	if l.EndOffset() != 2 {
		t.Fatalf("end after in-memory truncate = %d", l.EndOffset())
	}
	appendValues(t, l, 1)
	checkDense(t, l, 0, 3)
}
