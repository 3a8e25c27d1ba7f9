// Package event defines the Octopus event model.
//
// An event is the unit of communication in the Octopus fabric. Following
// §II of the paper, events carry a small envelope of routing metadata
// (topic, key, timestamp, headers) and an opaque payload. Scientific
// events may be much larger than conventional EDA events, so payloads are
// byte slices rather than fixed schemas, and a flexible JSON view is
// provided for trigger pattern matching.
package event

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Event is a single record flowing through the fabric.
//
// The zero value is a valid, empty event. Producers typically set Key,
// Value and Headers; the fabric assigns Topic, Partition, Offset and
// Timestamp on append.
type Event struct {
	// Topic is the topic the event was published to.
	Topic string
	// Partition is the partition within the topic.
	Partition int
	// Offset is the position within the partition. Offsets are dense and
	// strictly increasing within a partition.
	Offset int64
	// Key is an optional routing key. Events with equal keys map to the
	// same partition and are therefore totally ordered w.r.t. each other.
	Key []byte
	// Value is the event payload.
	Value []byte
	// Timestamp is the broker-assigned append time.
	Timestamp time.Time
	// Headers carry application metadata (experiment ids, provenance...).
	Headers map[string]string
}

// Size returns the wire size of the event in bytes: key + value + headers.
// It is the quantity the capacity model and quota accounting charge for.
func (e *Event) Size() int {
	n := len(e.Key) + len(e.Value)
	for k, v := range e.Headers {
		n += len(k) + len(v)
	}
	return n
}

// Clone returns a deep copy of the event, for holders that outlive the
// buffers its Key, Value and Headers alias.
func (e *Event) Clone() Event {
	c := *e
	if e.Key != nil {
		c.Key = append([]byte(nil), e.Key...)
	}
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	if e.Headers != nil {
		c.Headers = make(map[string]string, len(e.Headers))
		for k, v := range e.Headers {
			c.Headers[k] = v
		}
	}
	return c
}

// JSON decodes the payload as a JSON document, the form consumed by the
// trigger pattern language. It returns an error if the payload is not
// valid JSON.
func (e *Event) JSON() (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(e.Value, &m); err != nil {
		return nil, fmt.Errorf("event: payload is not a JSON object: %w", err)
	}
	return m, nil
}

// New creates an event with the given key and a JSON-encoded payload.
// It panics only if v cannot be marshaled, which indicates a programming
// error (e.g. a channel in the payload).
func New(key string, v any) Event {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("event: cannot marshal payload: %v", err))
	}
	var k []byte
	if key != "" {
		k = []byte(key)
	}
	return Event{Key: k, Value: b}
}

// Marshal encodes the event into a compact binary form used by the wire
// protocol and the on-disk log. Layout (big endian):
//
//	u32 keyLen  | key bytes
//	u32 valLen  | value bytes
//	i64 unix-nano timestamp
//	u32 headerCount | (u32 kLen, k, u32 vLen, v)*
//
// Topic/partition/offset are contextual and carried by the container.
func (e *Event) Marshal() []byte {
	return e.AppendMarshal(make([]byte, 0, e.MarshaledSize()))
}

// MarshaledSize returns the exact encoded size of the event, letting
// batch encoders size one buffer for a whole batch up front.
func (e *Event) MarshaledSize() int {
	n := 4 + len(e.Key) + 4 + len(e.Value) + 8 + 4
	for k, v := range e.Headers {
		n += 8 + len(k) + len(v)
	}
	return n
}

// AppendMarshal appends the binary encoding to buf and returns the
// extended slice, so batch encoders reuse one growing buffer instead of
// allocating per event.
func (e *Event) AppendMarshal(buf []byte) []byte {
	buf = appendBytes(buf, e.Key)
	buf = appendBytes(buf, e.Value)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Timestamp.UnixNano()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Headers)))
	for k, v := range e.Headers {
		buf = appendBytes(buf, []byte(k))
		buf = appendBytes(buf, []byte(v))
	}
	return buf
}

// ErrTruncated reports a malformed or truncated binary event.
var ErrTruncated = errors.New("event: truncated record")

// Unmarshal decodes an event encoded by Marshal. It returns the number of
// bytes consumed so that records can be decoded from a concatenated batch.
// Key and Value are copied out of b, so the caller may reuse the buffer.
func Unmarshal(b []byte) (Event, int, error) {
	var e Event
	n, err := unmarshal(&e, b, true)
	return e, n, err
}

// unmarshal decodes one event into e, which it sets only on success: in
// place, so batch decoders fill their result slots without copying
// Event values around.
func unmarshal(e *Event, b []byte, copyBytes bool) (int, error) {
	pos := 0
	key, n, err := readBytesZC(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	val, n, err := readBytesZC(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	if len(b[pos:]) < 12 {
		return 0, ErrTruncated
	}
	ts := int64(binary.BigEndian.Uint64(b[pos:]))
	pos += 8
	hc := int(binary.BigEndian.Uint32(b[pos:]))
	pos += 4
	var headers map[string]string
	if hc > 0 {
		headers = make(map[string]string, hc)
		for i := 0; i < hc; i++ {
			// Header bytes become strings, their own copies.
			k, n, err := readBytesZC(b[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			v, n, err := readBytesZC(b[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
			headers[string(k)] = string(v)
		}
	}
	if copyBytes {
		key, val = bytes.Clone(key), bytes.Clone(val)
	}
	e.Key, e.Value, e.Timestamp, e.Headers = key, val, time.Unix(0, ts), headers
	return pos, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// readBytesZC reads one length-prefixed field without copying: the
// returned slice aliases b (nil when the field is empty).
func readBytesZC(b []byte) ([]byte, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+n {
		return nil, 0, ErrTruncated
	}
	if n == 0 {
		return nil, 4, nil
	}
	return b[4 : 4+n : 4+n], 4 + n, nil
}

// AppendBatchMarshal encodes evs back-to-back onto buf — the wire
// payload form — growing it at most once per call, and amortised: when
// buf lacks room it grows by a multiple of its length (slices.Grow), not
// to the exact fit. A caller appending many batches into one buffer
// therefore copies it O(log n) times, not once per batch.
func AppendBatchMarshal(buf []byte, evs []Event) []byte {
	total := 0
	for i := range evs {
		total += evs[i].MarshaledSize()
	}
	buf = slices.Grow(buf, total)
	for i := range evs {
		buf = evs[i].AppendMarshal(buf)
	}
	return buf
}

// UnmarshalBatch decodes n concatenated records from b into one slice.
// The decoded Key/Value fields alias b — b is the batch arena — so the
// caller must not modify b afterwards. It returns the events and the
// total bytes consumed: one events slice and zero per-field copies
// regardless of batch size.
func UnmarshalBatch(b []byte, n int) ([]Event, int, error) {
	return AppendUnmarshalBatch(make([]Event, 0, n), b, n)
}

// AppendUnmarshalBatch is UnmarshalBatch decoding into dst (appending,
// reusing its capacity), so a steady-state consumer can poll with zero
// slice allocations: the fetch session hands the same slice back every
// poll. The aliasing contract is UnmarshalBatch's: decoded Key/Value
// fields alias b for as long as the returned events are live.
func AppendUnmarshalBatch(dst []Event, b []byte, n int) ([]Event, int, error) {
	pos := 0
	for i := 0; i < n; i++ {
		dst = append(dst, Event{})
		sz, err := unmarshal(&dst[len(dst)-1], b[pos:], false)
		if err != nil {
			return nil, 0, fmt.Errorf("event: record %d of %d: %w", i, n, err)
		}
		pos += sz
	}
	return dst, pos, nil
}
