// Package eventlog implements the storage engine behind a topic
// partition: an append-only, offset-addressed, segmented commit log with
// time-indexed lookup, retention enforcement and key compaction. It is
// the moral equivalent of Kafka's log layer (§IV-A of the paper), built
// from scratch on Go slices, with optional file-backed persistence.
//
// The log copies and owns what it stores: each append encodes its events
// once into immutable record frames (layout in persist.go) that a segment
// keeps behind a pointer-free index of 16 bytes per record. A frame's
// body past its header is the event's wire encoding, so wire reads
// (ReadEncoded) copy those bytes out as they are, and in-process reads
// (ReadBudgetInto) decode events straight out of them. With Config.Dir
// set the same bytes are the segment's file, <dir>/<baseOffset, 20 decimal
// digits>.seg, written with one write per append call (fsync only when
// Config.Fsync is set), so a batch is the durability unit. Open replays
// the files and keeps their bytes: the first frame that fails its crc or
// length check — the torn tail of a crash — truncates that file at the
// last intact boundary and deletes any later files, keeping the recovered
// offset space contiguous. Retention deletes whole segment files;
// compaction and Truncate rewrite the affected file via temp file +
// rename.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
)

// Errors returned by log reads.
var (
	// ErrOffsetOutOfRange reports a read before the log start (records
	// deleted by retention) or a negative offset.
	ErrOffsetOutOfRange = errors.New("eventlog: offset out of range")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("eventlog: log closed")
)

// Config controls segment rolling and retention for a partition log.
type Config struct {
	// SegmentBytes rolls a new segment when the active one reaches this
	// many payload bytes. Default 4 MiB.
	SegmentBytes int
	// SegmentEvents rolls a new segment after this many records.
	// Default 65536.
	SegmentEvents int
	// Retention is the maximum age of a segment before it is eligible
	// for deletion; the paper's default topic retention is seven days.
	Retention time.Duration
	// RetentionBytes caps the total stored bytes (0 = unlimited).
	RetentionBytes int64
	// Compact enables key compaction: on Compact(), only the latest
	// record per key in sealed segments is retained.
	Compact bool
	// Dir enables file-backed persistence: appends are framed into
	// per-segment files under this directory and Open replays them.
	// Empty means in-memory only.
	Dir string
	// Fsync forces an fsync after every persisted append batch. Off by
	// default: the durability unit is then the OS page cache, which
	// survives process crashes (the failure mode replication recovery
	// exercises) but not host power loss.
	Fsync bool
	// AppendLatency, when non-nil, observes the wall-clock nanoseconds
	// of every append batch (lock wait + encode + flush + optional
	// fsync) — the storage-engine slice of the produce latency budget.
	// Fixed at open; typically a fabric-wide histogram shared by every
	// partition log.
	AppendLatency *metrics.BucketHist
	// AppendBytes, when non-nil, observes the payload bytes appended
	// per batch.
	AppendBytes *metrics.BucketHist
}

// DefaultConfig returns the paper's defaults (7-day retention).
func DefaultConfig() Config {
	return Config{
		SegmentBytes:  4 << 20,
		SegmentEvents: 65536,
		Retention:     7 * 24 * time.Hour,
	}
}

// Frame positions in a segment file are 32-bit; these caps keep the file
// far inside that range.
const maxSegmentBytes, maxSegmentEvents = 1 << 30, 1 << 24

func (c *Config) fill() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	c.SegmentBytes = min(c.SegmentBytes, maxSegmentBytes)
	if c.SegmentEvents <= 0 {
		c.SegmentEvents = 65536
	}
	c.SegmentEvents = min(c.SegmentEvents, maxSegmentEvents)
	if c.Retention <= 0 {
		c.Retention = 7 * 24 * time.Hour
	}
}

// record indexes one stored frame: 16 bytes and no pointer, so the
// garbage collector never scans a segment's index. ts is the event's
// timestamp in unix nanoseconds, pos the frame's position in the segment
// file, and size caches Event.Size() for byte budgets, retention and
// compaction. The offset is read from the frame.
type record struct {
	ts        int64
	pos, size uint32
}

// segment is a run of records covering the offset range
// [baseOffset, nextOffset()). Compaction may remove records from sealed
// segments, so the range is fixed at seal time rather than derived from
// the record count.
type segment struct {
	baseOffset int64
	records    []record
	// chunks hold the segment's frames in file order: one per append, or
	// one for the whole segment after a replay, compaction or truncation.
	// Concatenated they are the segment file, byte for byte; ends[i] is
	// the file position one past chunks[i]. A stored chunk never changes,
	// so returned events may alias it.
	chunks     [][]byte
	ends       []uint32
	bytes      int
	lastAppend time.Time
	sealed     bool
	// end is the offset one past the segment's last assigned record,
	// frozen when the segment seals. Deriving it from len(records) would
	// undercount once compaction punches holes, making surviving records
	// unreachable from mid-segment read offsets.
	end int64
}

func (s *segment) nextOffset() int64 {
	if s.sealed {
		return s.end
	}
	// The active segment is dense from baseOffset: compaction only
	// touches sealed segments.
	return s.baseOffset + int64(len(s.records))
}

// search returns the index of the first record with offset >= off. In a
// segment without compaction holes, record i holds baseOffset+i.
func (s *segment) search(off int64) int {
	if n := int64(len(s.records)); n == s.nextOffset()-s.baseOffset {
		return int(min(max(off-s.baseOffset, 0), n))
	}
	return sort.Search(len(s.records), func(i int) bool { return s.offset(&s.records[i]) >= off })
}

// Log is a single partition's commit log. All methods are safe for
// concurrent use.
type Log struct {
	mu       sync.RWMutex
	cfg      Config
	segments []*segment
	// start is the lowest retained offset (advances under retention).
	start int64
	// next is the offset the next appended record will receive.
	next   int64
	bytes  int64
	closed bool
	// notifies are the registered one-shot append callbacks (NotifyAppend),
	// the log's only wake mechanism. Lazily allocated; an idle log carries
	// none.
	notifies map[uint64]appendNotify
	notifyID uint64
	// reads counts ReadBudgetInto and ReadEncoded calls — the probe the
	// idle-consumer tests use to prove a parked consumer performs no log
	// reads between appends.
	reads atomic.Int64
	// slab is the unused rest of the slab small chunks are carved from
	// (chunkBuf).
	slab []byte
	// File-backed persistence state ("" / nil for in-memory logs): the
	// backing directory and the active segment's append handle.
	dir        string
	activeFile *os.File
}

// New creates an empty log with the given configuration. With cfg.Dir
// set it opens (and replays) the backing directory, panicking on I/O
// errors — callers that want to handle those use Open directly.
func New(cfg Config) *Log {
	l, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Small chunks are carved from a shared slab, so a run of small appends
// costs one allocation per slab rather than one per append. A slab holds
// sixteen chunks of the size that opened it, or as many as fit in
// maxSlab; a chunk above maxSlab/4 is allocated on its own, so a slab
// never strands more than a quarter of itself. A slab lives until its
// last chunk is dropped.
const maxSlab = 256 << 10

// chunkBuf returns an empty buffer with capacity exactly size for one
// append's chunk. Callers hold l.mu.
func (l *Log) chunkBuf(size int) []byte {
	if size > maxSlab/4 {
		return make([]byte, 0, size)
	}
	if len(l.slab) < size {
		l.slab = make([]byte, min(16, maxSlab/size)*size)
	}
	b := l.slab[:0:size]
	l.slab = l.slab[size:]
	return b
}

// appendLocked stores evs at consecutive offsets from l.next, rolling a
// segment once its payload bytes or record count reach the configured
// limit (checked before each event). Each run of events that lands on one
// segment is encoded once into a chunk that is written to the segment
// file and kept as the segment's copy of those records; a failed write
// indexes nothing. now stamps every event unless leaderStamped, where
// each keeps its own Timestamp. Callers hold l.mu. The returned error is
// only ever non-nil for file-backed logs.
func (l *Log) appendLocked(evs []event.Event, now time.Time, leaderStamped bool) error {
	for len(evs) > 0 {
		seg := l.segments[len(l.segments)-1]
		if seg.bytes >= l.cfg.SegmentBytes || len(seg.records) >= l.cfg.SegmentEvents {
			if err := l.rollToLocked(l.next); err != nil {
				return err
			}
			seg = l.segments[len(l.segments)-1]
		}
		n, payload, size := 0, seg.bytes, 0
		for n < len(evs) && payload < l.cfg.SegmentBytes && len(seg.records)+n < l.cfg.SegmentEvents {
			payload += evs[n].Size()
			size += frameHeaderLen + evs[n].MarshaledSize()
			n++
		}
		first, at := len(seg.records), uint32(0)
		if len(seg.ends) > 0 {
			at = seg.ends[len(seg.ends)-1] // the file size
		}
		chunk := l.chunkBuf(size)
		for i := range evs[:n] {
			ev, off := evs[i], l.next+int64(i)
			if !leaderStamped {
				ev.Timestamp = now
			}
			seg.records = append(seg.records, record{
				ts:   ev.Timestamp.UnixNano(),
				pos:  at + uint32(len(chunk)),
				size: uint32(ev.Size()),
			})
			chunk = appendFrame(chunk, off, &ev)
		}
		if err := l.writeLocked(chunk); err != nil {
			seg.records = seg.records[:first]
			return err
		}
		seg.chunks = append(seg.chunks, chunk)
		seg.ends = append(seg.ends, at+uint32(len(chunk)))
		seg.lastAppend = now
		if leaderStamped {
			seg.lastAppend = evs[n-1].Timestamp
		}
		l.bytes += int64(payload - seg.bytes)
		seg.bytes = payload
		l.next += int64(n)
		if err := l.syncLocked(); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// Append assigns the next offset and stores the event, stamping it with
// now. It returns the assigned offset.
func (l *Log) Append(ev event.Event, now time.Time) (int64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	off := l.next
	err := l.appendLocked([]event.Event{ev}, now, false)
	fired := l.notifyLocked(make([]func(), 0, 8))
	l.mu.Unlock()
	runNotifies(fired)
	if err != nil {
		return 0, err
	}
	return off, nil
}

// AppendBatch appends events in order, returning the first assigned
// offset. A batch is appended atomically with respect to readers, and
// for file-backed logs it is also the durability unit: one write (and
// optional fsync) covers the whole batch, or each segment's share of a
// batch that rolls one.
func (l *Log) AppendBatch(evs []event.Event, now time.Time) (int64, error) {
	var t0 time.Time
	if l.cfg.AppendLatency != nil {
		t0 = time.Now()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	first := l.next
	startBytes := l.bytes
	err := l.appendLocked(evs, now, false)
	appended := l.bytes - startBytes
	var fired []func()
	if len(evs) > 0 {
		fired = l.notifyLocked(make([]func(), 0, 8))
	}
	l.mu.Unlock()
	runNotifies(fired)
	if l.cfg.AppendLatency != nil {
		l.cfg.AppendLatency.Observe(int64(time.Since(t0)))
		if l.cfg.AppendBytes != nil {
			l.cfg.AppendBytes.Observe(appended)
		}
	}
	if err != nil {
		return 0, err
	}
	return first, nil
}

// AppendReplicated appends a batch fetched from the partition leader,
// preserving the leader-assigned offsets and timestamps instead of
// assigning fresh ones — the follower side of replication, which must
// produce a byte-identical offset space or a promoted follower would
// re-serve acked offsets with different events. Records at offsets the
// log already holds are skipped (re-fetch overlap after a truncate),
// and a gap — the leader compacted or retention-deleted records
// between the follower's position and the batch — seals the active
// segment at the current end and rolls a fresh one at the gap's far
// side, preserving the active-segment density invariant. Like
// AppendBatch, the whole call is one durability unit.
func (l *Log) AppendReplicated(evs []event.Event) error {
	var t0 time.Time
	if l.cfg.AppendLatency != nil {
		t0 = time.Now()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	startBytes := l.bytes
	var err error
	appended := false
	for len(evs) > 0 && err == nil {
		if evs[0].Offset < l.next {
			evs = evs[1:]
			continue
		}
		if evs[0].Offset > l.next {
			if err = l.rollToLocked(evs[0].Offset); err != nil {
				break
			}
		}
		// The run of consecutive offsets lands densely from l.next.
		n := 1
		for n < len(evs) && evs[n].Offset == evs[n-1].Offset+1 {
			n++
		}
		err = l.appendLocked(evs[:n], time.Time{}, true)
		appended = true
		evs = evs[n:]
	}
	addedBytes := l.bytes - startBytes
	var fired []func()
	if appended {
		fired = l.notifyLocked(make([]func(), 0, 8))
	}
	l.mu.Unlock()
	runNotifies(fired)
	if l.cfg.AppendLatency != nil && appended {
		l.cfg.AppendLatency.Observe(int64(time.Since(t0)))
		if l.cfg.AppendBytes != nil {
			l.cfg.AppendBytes.Observe(addedBytes)
		}
	}
	return err
}

// rollToLocked seals the active segment at the current end and starts
// a fresh one at base (>= l.next); a base past l.next lets replicated
// records landing past a leader-side hole keep the active segment dense.
func (l *Log) rollToLocked(base int64) error {
	active := l.segments[len(l.segments)-1]
	active.end = l.next
	active.sealed = true
	if err := l.persistRollLocked(base); err != nil {
		active.sealed = false
		active.end = 0
		return err
	}
	l.segments = append(l.segments, &segment{baseOffset: base})
	l.next = base
	return nil
}

// notifyLocked appends to fired the registered append callbacks whose
// offsets became readable. Callers hold l.mu and have just appended (or
// are closing the log); the returned callbacks must be invoked after l.mu
// is released — a callback is free to take locks of its own, and running
// it under l.mu would order l.mu inside them, the inverse of the
// registration path. One notification per batch, not per record: waiters
// re-check the end offset themselves. Callers pass a small stack buffer,
// so waking a few waiters allocates nothing.
func (l *Log) notifyLocked(fired []func()) []func() {
	for id, n := range l.notifies {
		if n.offset < l.next || l.closed {
			fired = append(fired, n.fn)
			delete(l.notifies, id)
		}
	}
	return fired
}

// runNotifies invokes fired append callbacks, outside l.mu.
func runNotifies(fired []func()) {
	for _, fn := range fired {
		fn()
	}
}

// appendNotify is one registered one-shot append callback.
type appendNotify struct {
	offset int64
	fn     func()
}

// NotifyAppend registers fn to run once, when the log end advances past
// offset (data becomes readable at offset) or the log closes. If data
// is already readable at offset — or the log is already closed — fn is
// NOT invoked and registered is false: the caller's state is already
// actionable and it should proceed directly.
//
// This is the log's only wake mechanism; Waiter wraps it. Callbacks run
// outside the log lock but on the appender's goroutine, so they must be
// cheap and non-blocking — set a flag, poke a channel — never fetch.
//
// The registration is one-shot: after fn runs it is forgotten, and
// re-arming requires another NotifyAppend. Cancel with CancelNotify; a
// callback already collected by a concurrent append may still run one
// last time after CancelNotify returns, so callbacks must tolerate
// late invocation.
func (l *Log) NotifyAppend(offset int64, fn func()) (handle uint64, registered bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.next > offset {
		return 0, false
	}
	l.notifyID++
	if l.notifies == nil {
		l.notifies = make(map[uint64]appendNotify, 4)
	}
	l.notifies[l.notifyID] = appendNotify{offset: offset, fn: fn}
	return l.notifyID, true
}

// CancelNotify drops a NotifyAppend registration. Idempotent; unknown
// (or already-fired) handles are ignored.
func (l *Log) CancelNotify(handle uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.notifies, handle)
}

// Reads reports the cumulative number of read calls served by the log —
// a test probe for asserting that blocked consumers are not busy-polling.
func (l *Log) Reads() int64 { return l.reads.Load() }

// findSegment returns the index of the first segment that may contain
// records at or above offset: the last segment with baseOffset <= offset,
// stepping forward if that segment ends below offset. Segments are sorted
// by baseOffset and cover contiguous offset ranges, so this is a binary
// search rather than the linear scan a long-lived partition cannot afford.
func (l *Log) findSegment(offset int64) int {
	lo, hi := 0, len(l.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.segments[mid].baseOffset <= offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first segment with baseOffset > offset; the candidate is
	// the one before it.
	if lo > 0 {
		lo--
	}
	for lo < len(l.segments) && l.segments[lo].nextOffset() <= offset {
		lo++
	}
	return lo
}

// Read returns up to max events starting at offset. A read exactly at the
// log end returns an empty slice and no error (the caller polls or waits).
func (l *Log) Read(offset int64, max int) ([]event.Event, error) {
	if max <= 0 {
		max = 0
	}
	return l.ReadBudget(offset, max, 0)
}

// ReadBudget returns events starting at offset, bounded by both an event
// count (max < 0 means unbounded; max == 0 returns no events) and a
// payload byte budget (maxBytes <= 0 means unbounded). The byte budget is soft on the first event only:
// at least one event is returned when any is available, and no event
// beyond the first may push the cumulative size to or past maxBytes —
// the semantics Fabric.Fetch and Log.ReadBytes share. Events are decoded
// out of the segments' chunks: Key and Value alias the log's bytes,
// which never change, and must not be modified. Topic and Partition are
// left unset; the log does not know them.
func (l *Log) ReadBudget(offset int64, max, maxBytes int) ([]event.Event, error) {
	return l.ReadBudgetInto(offset, max, maxBytes, nil)
}

// ReadBudgetInto is ReadBudget appending into dst (reusing its
// capacity), so a steady-state consumer fetch allocates nothing once its
// receive slice has grown: the fetch session hands the same slice back
// on every poll. Returned events alias the log's chunks, as with
// ReadBudget. A nil dst behaves exactly like ReadBudget.
func (l *Log) ReadBudgetInto(offset int64, max, maxBytes int, dst []event.Event) ([]event.Event, error) {
	l.reads.Add(1)
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkReadLocked(offset); err != nil {
		return nil, err
	}
	if dst == nil && offset < l.next && max != 0 {
		hint := 64
		if max > 0 {
			hint = min(max, 64)
		}
		dst = make([]event.Event, 0, hint)
	}
	for f, r := range l.recordsLocked(offset, max, maxBytes) {
		dst = appendEvent(dst, f, r.ts)
	}
	return dst, nil
}

// Run is a maximal stretch of consecutive offsets in a read: Count
// records from Start.
type Run struct {
	Start, Count int64
}

// AppendRun appends count offsets from start to runs, extending the
// last run when start continues it.
func AppendRun(runs []Run, start, count int64) []Run {
	if n := len(runs); n > 0 && runs[n-1].Start+runs[n-1].Count == start {
		runs[n-1].Count += count
		return runs
	}
	return append(runs, Run{Start: start, Count: count})
}

// Encoded is a read served as stored bytes (ReadEncoded): what a wire
// fetch response carries, with no event decoded. It is a reusable
// buffer; reads append to it and Reset empties it.
type Encoded struct {
	// Payload holds the records' event encodings (Event.Marshal form)
	// back to back: the payload of a fetch response.
	Payload []byte
	// Runs lists the records' offsets, in order.
	Runs []Run
	// Events counts the records; Bytes sums their Event.Size().
	Events, Bytes int
}

// Reset empties b, keeping its buffers.
func (b *Encoded) Reset() {
	b.Payload, b.Runs, b.Events, b.Bytes = b.Payload[:0], b.Runs[:0], 0, 0
}

// Charge is the records' fetch-session window charge: their payload
// bytes plus one per record.
func (b *Encoded) Charge() int { return b.Bytes + b.Events }

// AppendEvents encodes evs onto b, for events that do not come from a
// log's stored bytes.
func (b *Encoded) AppendEvents(evs []event.Event) {
	b.Payload = event.AppendBatchMarshal(b.Payload, evs)
	for i := range evs {
		b.Runs = AppendRun(b.Runs, evs[i].Offset, 1)
		b.Bytes += evs[i].Size()
	}
	b.Events += len(evs)
}

// Decode appends b's events to dst, offsets set from b.Runs. Key and
// Value alias b.Payload.
func (b *Encoded) Decode(dst []event.Event) ([]event.Event, error) {
	n := len(dst)
	dst, used, err := event.AppendUnmarshalBatch(dst, b.Payload, b.Events)
	if err != nil {
		return nil, err
	}
	if used != len(b.Payload) {
		return nil, fmt.Errorf("eventlog: %d bytes after %d encoded events", len(b.Payload)-used, b.Events)
	}
	for _, r := range b.Runs {
		for k := int64(0); k < r.Count && n < len(dst); k++ {
			dst[n].Offset = r.Start + k
			n++
		}
	}
	return dst, nil
}

// ReadEncoded is ReadBudgetInto serving stored bytes: it appends to b
// the event encodings of the records ReadBudgetInto would return for
// (offset, max, maxBytes), their offsets as runs, and their count and
// payload bytes. A frame's body past its header is the record's wire
// encoding (persist.go), so a read is one copy per record and no event
// is built.
func (l *Log) ReadEncoded(offset int64, max, maxBytes int, b *Encoded) error {
	l.reads.Add(1)
	l.mu.RLock()
	defer l.mu.RUnlock()
	if err := l.checkReadLocked(offset); err != nil {
		return err
	}
	for f, r := range l.recordsLocked(offset, max, maxBytes) {
		b.Payload = append(b.Payload, f[frameHeaderLen:]...)
		b.Runs = AppendRun(b.Runs, int64(binary.BigEndian.Uint64(f[8:])), 1)
		b.Events++
		b.Bytes += int(r.size)
	}
	return nil
}

// checkReadLocked reports whether offset can be read: the log is open
// and offset lies in [start, next]. Callers hold l.mu.
func (l *Log) checkReadLocked(offset int64) error {
	if l.closed {
		return ErrClosed
	}
	if offset < l.start || offset > l.next {
		return fmt.Errorf("%w: offset %d not in [%d,%d]", ErrOffsetOutOfRange, offset, l.start, l.next)
	}
	return nil
}

// recordsLocked yields the frame and index entry of each record from
// offset on, across segment rolls and compaction holes, under the read
// budget both reads share (ReadBudget): at most max records (max < 0 is
// unbounded), and with maxBytes > 0 no record past the first that takes
// the payload bytes to or past maxBytes. Callers hold l.mu.
func (l *Log) recordsLocked(offset int64, max, maxBytes int) iter.Seq2[[]byte, *record] {
	return func(yield func([]byte, *record) bool) {
		if max < 0 {
			max = 1 << 30
		}
		n, total := 0, 0
		for si := l.findSegment(offset); si < len(l.segments) && n < max; si++ {
			seg := l.segments[si]
			idx := 0
			if offset > seg.baseOffset {
				idx = seg.search(offset)
			}
			if idx == len(seg.records) {
				continue
			}
			c := seg.chunkAt(seg.records[idx].pos)
			for ; idx < len(seg.records); idx++ {
				r := &seg.records[idx]
				for r.pos >= seg.ends[c] {
					c++
				}
				if maxBytes > 0 {
					if total+int(r.size) >= maxBytes && n > 0 {
						return
					}
					total += int(r.size)
				}
				if !yield(seg.frameIn(c, r), r) {
					return
				}
				if n++; n >= max || (maxBytes > 0 && total >= maxBytes) {
					return
				}
			}
		}
	}
}

// ReadBytes returns events starting at offset until maxBytes of payload
// have been accumulated (at least one event is returned if available).
func (l *Log) ReadBytes(offset int64, maxBytes int) ([]event.Event, error) {
	return l.ReadBudget(offset, -1, maxBytes)
}

// OffsetForTime returns the first offset whose record timestamp is at or
// after t — the "consume after a certain timestamp" interface of §IV-F.
// If every record is older than t, the end offset is returned. Append
// timestamps are non-decreasing, so the lookup is a two-level binary
// search: first across segments (by each segment's last record), then
// within the segment's records.
func (l *Log) OffsetForTime(t time.Time) int64 {
	tn := t.UnixNano()
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Find the first non-empty segment whose last record is at or after
	// t. Empty segments (a freshly rolled active segment, or a sealed
	// segment compaction emptied entirely) carry no ordering information
	// and would break the predicate's monotonicity, so the probe steps
	// past them and the found candidate is tracked explicitly.
	best := len(l.segments)
	lo, hi := 0, len(l.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		j := mid
		for j < hi && len(l.segments[j].records) == 0 {
			j++
		}
		if j == hi {
			// [mid, hi) holds no records; the answer, if any, is earlier.
			hi = mid
			continue
		}
		seg := l.segments[j]
		if seg.records[len(seg.records)-1].ts < tn {
			lo = j + 1
		} else {
			// Segment j qualifies; keep looking for an earlier one in
			// [lo, mid) — everything in [mid, j) is empty.
			best = j
			hi = mid
		}
	}
	if best == len(l.segments) {
		return l.next
	}
	seg := l.segments[best]
	i := sort.Search(len(seg.records), func(i int) bool { return seg.records[i].ts >= tn })
	return seg.offset(&seg.records[i])
}

// StartOffset returns the earliest retained offset.
func (l *Log) StartOffset() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.start
}

// EndOffset returns the offset one past the last appended record.
func (l *Log) EndOffset() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.next
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, seg := range l.segments {
		n += len(seg.records)
	}
	return n
}

// Bytes returns the total retained payload bytes.
func (l *Log) Bytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.bytes
}

// EnforceRetention drops sealed segments older than the retention window
// or in excess of RetentionBytes, advancing the start offset. It returns
// the number of records deleted.
func (l *Log) EnforceRetention(now time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	deleted := 0
	var dropped []*segment
	for len(l.segments)-len(dropped) > 1 {
		seg := l.segments[len(dropped)]
		expired := l.cfg.Retention > 0 && !seg.lastAppend.IsZero() && now.Sub(seg.lastAppend) > l.cfg.Retention
		overBytes := l.cfg.RetentionBytes > 0 && l.bytes > l.cfg.RetentionBytes
		if !expired && !overBytes {
			break
		}
		deleted += len(seg.records)
		l.bytes -= int64(seg.bytes)
		l.start = seg.nextOffset()
		dropped = append(dropped, seg)
	}
	l.removeSegmentFiles(dropped)
	// Copy the survivors down rather than reslicing past the dropped
	// head: slices.Delete zeroes the vacated tail, so no dropped segment
	// (and none of its records) stays reachable through the backing array.
	l.segments = slices.Delete(l.segments, 0, len(dropped))
	return deleted
}

// Compact removes superseded records (same key, older offset) from sealed
// segments, retaining only the most recent record per key, as configured
// via the topic "cleanup policy" of §IV-F. Records with nil keys are
// always retained. It returns the number of records removed.
func (l *Log) Compact() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.cfg.Compact {
		return 0
	}
	latest := make(map[string]int64)
	var one [1]event.Event
	for _, seg := range l.segments {
		for i := range seg.records {
			r := &seg.records[i]
			if k := appendEvent(one[:0], seg.frame(r), r.ts)[0].Key; k != nil {
				latest[string(k)] = seg.offset(r)
			}
		}
	}
	removed := 0
	for _, seg := range l.segments {
		if !seg.sealed {
			continue
		}
		before := len(seg.records)
		kept := seg.records[:0]
		for _, r := range seg.records {
			if k := appendEvent(one[:0], seg.frame(&r), r.ts)[0].Key; k != nil && latest[string(k)] != seg.offset(&r) {
				removed++
				l.bytes -= int64(r.size)
				seg.bytes -= int(r.size)
				continue
			}
			kept = append(kept, r)
		}
		seg.records = kept
		if len(seg.records) != before {
			// Repack (and persist) the hole-punched segment, so the
			// superseded frames are freed and replay does not resurrect
			// them.
			l.rewriteSegmentLocked(seg)
		}
	}
	return removed
}

// Close marks the log closed: subsequent operations fail with ErrClosed,
// and every registered append callback fires one final time, so parked
// waiters wake, re-check the log and observe ErrClosed.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	if l.activeFile != nil {
		l.activeFile.Close()
		l.activeFile = nil
	}
	fired := l.notifyLocked(make([]func(), 0, 8))
	l.mu.Unlock()
	runNotifies(fired)
}
