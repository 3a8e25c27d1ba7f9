package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/vclock"
)

func newFabric(t *testing.T, topic string, parts int) *broker.Fabric {
	t.Helper()
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	return f
}

func produceKeyed(t *testing.T, f *broker.Fabric, topic string, n int) {
	t.Helper()
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Key:     []byte(fmt.Sprintf("k%d", i%3)),
			Value:   []byte(fmt.Sprintf("v%d", i)),
			Headers: map[string]string{"seq": fmt.Sprintf("%d", i)},
		}
	}
	if _, err := f.Produce("", topic, -1, evs, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
}

func TestArchiveAndReadBack(t *testing.T) {
	f := newFabric(t, "t", 2)
	produceKeyed(t, f, "t", 40)
	a, err := NewArchive(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.ArchiveTopic(f, "t")
	if err != nil || n != 40 {
		t.Fatalf("archived %d, %v", n, err)
	}
	total := 0
	for p := 0; p < 2; p++ {
		evs, err := a.ReadPartition("t", p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(evs)
		// Offsets preserved and increasing.
		for i := 1; i < len(evs); i++ {
			if evs[i].Offset <= evs[i-1].Offset {
				t.Fatalf("offsets not increasing: %d then %d", evs[i-1].Offset, evs[i].Offset)
			}
		}
		// Headers survive the round trip.
		if len(evs) > 0 && evs[0].Headers["seq"] == "" {
			t.Fatal("headers lost")
		}
	}
	if total != 40 {
		t.Fatalf("read back %d", total)
	}
}

func TestArchiveIsIncrementalAndIdempotent(t *testing.T) {
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 10)
	a, _ := NewArchive(t.TempDir())
	if n, _ := a.ArchiveTopic(f, "t"); n != 10 {
		t.Fatalf("first pass archived %d", n)
	}
	// Nothing new: second pass is a no-op.
	if n, _ := a.ArchiveTopic(f, "t"); n != 0 {
		t.Fatalf("idempotent pass archived %d", n)
	}
	produceKeyed(t, f, "t", 5)
	if n, _ := a.ArchiveTopic(f, "t"); n != 5 {
		t.Fatalf("incremental pass archived %d", n)
	}
	evs, err := a.ReadPartition("t", 0)
	if err != nil || len(evs) != 15 {
		t.Fatalf("read back %d, %v", len(evs), err)
	}
}

func TestRestoreIntoFreshFabric(t *testing.T) {
	f1 := newFabric(t, "t", 2)
	produceKeyed(t, f1, "t", 30)
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if _, err := a.ArchiveTopic(f1, "t"); err != nil {
		t.Fatal(err)
	}
	// Disaster: a brand-new fabric restores the topic from the archive.
	f2 := broker.NewFabric(nil)
	if err := f2.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	n, err := a.RestoreTopic(f2, "t", cluster.TopicConfig{Partitions: 2})
	if err != nil || n != 30 {
		t.Fatalf("restored %d, %v", n, err)
	}
	// Contents and per-partition order match the original.
	for p := 0; p < 2; p++ {
		orig, _ := f1.Fetch("", "t", p, 0, 100, 0)
		rest, _ := f2.Fetch("", "t", p, 0, 100, 0)
		if len(orig.Events) != len(rest.Events) {
			t.Fatalf("partition %d: %d vs %d events", p, len(orig.Events), len(rest.Events))
		}
		for i := range orig.Events {
			if string(orig.Events[i].Value) != string(rest.Events[i].Value) {
				t.Fatalf("partition %d event %d differs", p, i)
			}
		}
	}
}

func TestCorruptObjectDetected(t *testing.T) {
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 5)
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the archived object.
	entries, _ := os.ReadDir(filepath.Join(dir, "t", "p0"))
	path := filepath.Join(dir, "t", "p0", entries[0].Name())
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadPartition("t", 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestTopicsAndPartitionsListing(t *testing.T) {
	f := newFabric(t, "b-topic", 3)
	if _, err := f.CreateTopic("a-topic", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceKeyed(t, f, "b-topic", 6)
	produceKeyed(t, f, "a-topic", 2)
	a, _ := NewArchive(t.TempDir())
	if _, err := a.ArchiveTopic(f, "b-topic"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ArchiveTopic(f, "a-topic"); err != nil {
		t.Fatal(err)
	}
	topics, err := a.Topics()
	if err != nil || len(topics) != 2 || topics[0] != "a-topic" {
		t.Fatalf("topics = %v, %v", topics, err)
	}
	parts, err := a.Partitions("b-topic")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatal("no partitions archived")
	}
}

func TestRestoreMissingTopic(t *testing.T) {
	a, _ := NewArchive(t.TempDir())
	f := newFabric(t, "x", 1)
	if _, err := a.RestoreTopic(f, "ghost", cluster.TopicConfig{}); err == nil {
		t.Fatal("missing archive accepted")
	}
}

func TestArchiveSurvivesRetention(t *testing.T) {
	// Archive, expire the live log via retention, archive again: the
	// early objects still hold the expired records.
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 10)
	a, _ := NewArchive(t.TempDir())
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	evs, err := a.ReadPartition("t", 0)
	if err != nil || len(evs) != 10 {
		t.Fatalf("archive holds %d", len(evs))
	}
}

func segPath(t *testing.T, dir, topic string, partition int) string {
	t.Helper()
	pdir := filepath.Join(dir, topic, fmt.Sprintf("p%d", partition))
	entries, err := os.ReadDir(pdir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no archived objects in %s: %v", pdir, err)
	}
	return filepath.Join(pdir, entries[0].Name())
}

func TestTruncatedObjectDetected(t *testing.T) {
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 5)
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir, "t", 0)
	data, _ := os.ReadFile(path)
	for _, cut := range []int{3, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadPartition("t", 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("object truncated to %d bytes not detected: %v", cut, err)
		}
	}
}

func TestFlippedChecksumDetected(t *testing.T) {
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 5)
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the stored crc header itself (the body is intact).
	path := segPath(t, dir, "t", 0)
	data, _ := os.ReadFile(path)
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadPartition("t", 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped crc not detected: %v", err)
	}
	if _, err := a.ReadTier("t", 0, 0, 10, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped crc not detected by ReadTier: %v", err)
	}
}

func TestPartialRestoreReturnsErrCorrupt(t *testing.T) {
	f := newFabric(t, "t", 2)
	produceKeyed(t, f, "t", 20)
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	// Corrupt partition 1's object only: the restore replays partition 0,
	// then surfaces ErrCorrupt with the partial count.
	path := segPath(t, dir, "t", 1)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f2 := broker.NewFabric(nil)
	if err := f2.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	p0, _ := a.ReadPartition("t", 0)
	n, err := a.RestoreTopic(f2, "t", cluster.TopicConfig{Partitions: 2})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial restore err = %v; want ErrCorrupt", err)
	}
	if n != len(p0) {
		t.Fatalf("restored %d; want partition 0's %d", n, len(p0))
	}
	res, err := f2.Fetch("", "t", 0, 0, 100, 0)
	if err != nil || len(res.Events) != len(p0) {
		t.Fatalf("restored partition unreadable: %d events, %v", len(res.Events), err)
	}
}

func TestReadTierBudgetsAndRange(t *testing.T) {
	f := newFabric(t, "t", 1)
	produceKeyed(t, f, "t", 12)
	a, _ := NewArchive(t.TempDir())
	if _, err := a.ArchiveTopic(f, "t"); err != nil {
		t.Fatal(err)
	}
	evs, err := a.ReadTier("t", 0, 4, 3, 0, nil)
	if err != nil || len(evs) != 3 || evs[0].Offset != 4 {
		t.Fatalf("mid-range read: %d events from %d, %v", len(evs), evs[0].Offset, err)
	}
	if evs[0].Topic != "t" || evs[0].Partition != 0 {
		t.Fatalf("tiered events not stamped: %+v", evs[0])
	}
	// A one-byte budget still returns at least one event.
	evs, err = a.ReadTier("t", 0, 0, 10, 1, nil)
	if err != nil || len(evs) != 1 {
		t.Fatalf("tiny byte budget: %d events, %v", len(evs), err)
	}
	// Past the archived range: empty, no error.
	evs, err = a.ReadTier("t", 0, 1000, 10, 0, nil)
	if err != nil || len(evs) != 0 {
		t.Fatalf("past-end read: %d events, %v", len(evs), err)
	}
	// Unarchived partition: empty, no error.
	evs, err = a.ReadTier("ghost", 9, 0, 10, 0, nil)
	if err != nil || len(evs) != 0 {
		t.Fatalf("missing partition read: %d events, %v", len(evs), err)
	}
}

func TestTieredFetchThroughBroker(t *testing.T) {
	// Offsets below local retention are served from the archive through
	// the broker's tiered-read path, transparently to the consumer.
	clk := vclock.NewVirtual(time.Unix(1_700_000_000, 0))
	f := broker.NewFabric(clk)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTopic("t", "", cluster.TopicConfig{Partitions: 1, Retention: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// 1 MiB values seal segments quickly (4 MiB roll threshold).
	big := make([]byte, 1<<20)
	for i := 0; i < 10; i++ {
		copy(big, fmt.Sprintf("big%02d", i))
		if _, err := f.Produce("", "t", 0, []event.Event{{Value: big}}, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	a, _ := NewArchive(dir)
	if n, err := a.ArchiveTopic(f, "t"); err != nil || n != 10 {
		t.Fatalf("archived %d, %v", n, err)
	}
	// Let retention expire the sealed local segments.
	clk.Advance(2 * time.Hour)
	if f.EnforceRetention() == 0 {
		t.Fatal("retention dropped nothing")
	}
	start, _ := f.StartOffset("t", 0)
	if start == 0 {
		t.Fatal("local start offset did not advance")
	}
	// Without a tiered reader, offset 0 is gone.
	if _, err := f.Fetch("", "t", 0, 0, 100, 0); err == nil {
		t.Fatal("expired offset served without archive")
	}
	f.SetTieredReader(a)
	res, err := f.Fetch("", "t", 0, 0, 3, 0)
	if err != nil || len(res.Events) != 3 {
		t.Fatalf("tiered fetch: %d events, %v", len(res.Events), err)
	}
	// The wire's read serves the same archived events, encoded.
	var enc eventlog.Encoded
	if _, err := f.FetchEncoded("", "t", 0, 0, 3, 0, &enc); err != nil {
		t.Fatalf("tiered encoded fetch: %v", err)
	}
	decoded, err := enc.Decode(nil)
	if err != nil || len(decoded) != 3 {
		t.Fatalf("tiered encoded fetch: %d events, %v", len(decoded), err)
	}
	for i, ev := range append(res.Events, decoded...) {
		want := fmt.Sprintf("big%02d", i%3)
		if ev.Offset != int64(i%3) || string(ev.Value[:5]) != want {
			t.Fatalf("tiered event %d: offset %d value %q", i, ev.Offset, ev.Value[:5])
		}
	}
	// Offsets at or above the local start still come from the live log.
	res, err = f.Fetch("", "t", 0, start, 100, 0)
	if err != nil || len(res.Events) == 0 {
		t.Fatalf("local fetch after retention: %d events, %v", len(res.Events), err)
	}
}
