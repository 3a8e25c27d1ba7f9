package event

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func batchOf(n int) []Event {
	ts := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			Key:       []byte{byte('a' + i)},
			Value:     bytes.Repeat([]byte{byte(i)}, 10+i),
			Timestamp: ts.Add(time.Duration(i) * time.Second),
		}
	}
	out[0].Headers = map[string]string{"experiment": "e-1"}
	return out
}

func TestAppendBatchMarshalMatchesPerEventMarshal(t *testing.T) {
	evs := batchOf(5)
	var want []byte
	for i := range evs {
		want = append(want, evs[i].Marshal()...)
	}
	got := AppendBatchMarshal(nil, evs)
	if !bytes.Equal(got, want) {
		t.Fatal("batch encoding differs from concatenated per-event encoding")
	}
	// Appending onto an existing prefix preserves it.
	got2 := AppendBatchMarshal([]byte("prefix"), evs)
	if string(got2[:6]) != "prefix" || !bytes.Equal(got2[6:], want) {
		t.Fatal("batch encoding clobbered the prefix")
	}
}

// TestAppendBatchMarshalGrowsAmortised pins the growth rule the server's
// push path depends on: appending batch after batch into one buffer
// (a connection's pending frames) reallocates it a logarithmic number of
// times. Growing to the exact fit would reallocate, and copy everything
// so far, on every append: 64 allocations here.
func TestAppendBatchMarshalGrowsAmortised(t *testing.T) {
	const batches = 64
	evs := batchOf(8)
	allocs := testing.AllocsPerRun(20, func() {
		var buf []byte
		for i := 0; i < batches; i++ {
			buf = AppendBatchMarshal(buf, evs)
		}
	})
	// Amortised growth reads 12 (Go 1.24: doubling while small, then
	// ~1.25x plus size-class rounding), and 24 under -race, where the
	// compiler does not fuse slices.Grow's append-of-make into one
	// allocation; exact fit reads 64 either way.
	const bound = batches / 2
	if allocs > bound {
		t.Fatalf("%v allocations to append %d batches into one buffer, want ≤ %d", allocs, batches, bound)
	}
}

func TestUnmarshalBatchRoundTrip(t *testing.T) {
	evs := batchOf(6)
	buf := AppendBatchMarshal(nil, evs)
	got, n, err := UnmarshalBatch(buf, len(evs))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if !bytes.Equal(got[i].Key, evs[i].Key) || !bytes.Equal(got[i].Value, evs[i].Value) {
			t.Fatalf("event %d: key/value mismatch", i)
		}
		if !got[i].Timestamp.Equal(evs[i].Timestamp) {
			t.Fatalf("event %d: timestamp %v != %v", i, got[i].Timestamp, evs[i].Timestamp)
		}
	}
	if got[0].Headers["experiment"] != "e-1" {
		t.Fatalf("headers = %v", got[0].Headers)
	}
}

func TestUnmarshalBatchAliasesArena(t *testing.T) {
	evs := []Event{{Key: []byte("k"), Value: []byte("hello")}}
	buf := AppendBatchMarshal(nil, evs)
	got, _, err := UnmarshalBatch(buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded value aliases the arena — that is the documented
	// zero-copy contract the fetch path relies on.
	buf[bytes.Index(buf, []byte("hello"))] = 'H'
	if string(got[0].Value) != "Hello" {
		t.Fatalf("decoded value does not alias the batch arena: %q", got[0].Value)
	}
}

func TestUnmarshalBatchTruncated(t *testing.T) {
	evs := batchOf(3)
	buf := AppendBatchMarshal(nil, evs)
	if _, _, err := UnmarshalBatch(buf[:len(buf)-3], 3); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if _, _, err := UnmarshalBatch(buf, 4); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated (count past payload)", err)
	}
}

func TestUnmarshalStillCopies(t *testing.T) {
	evs := []Event{{Key: []byte("k"), Value: []byte("hello")}}
	buf := AppendBatchMarshal(nil, evs)
	got, _, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[bytes.Index(buf, []byte("hello"))] = 'H'
	if string(got.Value) != "hello" {
		t.Fatalf("single-record Unmarshal must copy (got %q)", got.Value)
	}
}
