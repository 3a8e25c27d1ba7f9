// Package eventlog implements the storage engine behind a topic
// partition: an append-only, offset-addressed, segmented commit log with
// time-indexed lookup, retention enforcement and key compaction. It is
// the moral equivalent of Kafka's log layer (§IV-A of the paper), built
// from scratch on Go slices, with optional file-backed persistence.
//
// Persistence (Config.Dir) maps each in-memory segment to one file,
// <dir>/<baseOffset, 20 decimal digits>.seg, holding framed records:
//
//	u32 crc32(IEEE, over body) | u32 bodyLen | body
//	body = u64 offset | event.Marshal (key, value, timestamp, headers)
//
// Appends are encoded into a pending buffer and written with one write
// per Append/AppendBatch call (fsync only when Config.Fsync is set), so
// a batch is the durability unit. Open replays the segment files to
// rebuild the index: records stream back in base-offset order, and the
// first frame that fails its crc or length check — the torn tail of a
// crash — truncates that file at the last intact boundary and deletes
// any later files, keeping the recovered offset space contiguous.
// Retention deletes whole segment files; compaction and Truncate
// rewrite the affected file via temp file + rename.
package eventlog

import (
	"errors"
	"fmt"
	"os"
	"slices"
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

func (c *Config) fill() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.SegmentEvents <= 0 {
		c.SegmentEvents = 65536
	}
	if c.Retention <= 0 {
		c.Retention = 7 * 24 * time.Hour
	}
}

type record struct {
	offset int64
	// size caches ev.Size() at append time so fetch-side byte budgeting,
	// retention and compaction never re-walk key/value/header lengths.
	size int
	ev   event.Event
}

// segment is a run of records covering the offset range
// [baseOffset, nextOffset()). Compaction may remove records from sealed
// segments, so the range is fixed at seal time rather than derived from
// the record count.
type segment struct {
	baseOffset int64
	records    []record
	bytes      int
	created    time.Time
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
	// reads counts ReadBudgetInto calls — the probe the long-poll
	// regression tests use to prove an idle consumer performs no log
	// reads between appends.
	reads atomic.Int64
	// File-backed persistence state ("" / nil for in-memory logs):
	// the backing directory, the active segment's append handle, and
	// the pending encoded frames flushed once per append batch.
	dir        string
	activeFile *os.File
	wbuf       []byte
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

// appendLocked stores one event on the active segment, rolling first if
// the active segment is full. Callers hold l.mu. The returned error is
// only ever non-nil for file-backed logs (segment roll I/O).
func (l *Log) appendLocked(ev event.Event, now time.Time) error {
	active := l.segments[len(l.segments)-1]
	if active.bytes >= l.cfg.SegmentBytes || len(active.records) >= l.cfg.SegmentEvents {
		active.end = l.next
		active.sealed = true
		if err := l.persistRollLocked(l.next); err != nil {
			active.sealed = false
			active.end = 0
			return err
		}
		active = &segment{baseOffset: l.next, created: now}
		l.segments = append(l.segments, active)
	}
	if len(active.records) == 0 {
		active.created = now
	}
	ev.Offset = l.next
	ev.Timestamp = now
	sz := ev.Size()
	active.records = append(active.records, record{offset: l.next, size: sz, ev: ev})
	active.bytes += sz
	active.lastAppend = now
	l.bytes += int64(sz)
	l.next++
	if l.dir != "" {
		l.wbuf = appendRecordFrame(l.wbuf, ev.Offset, &ev)
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
	err := l.appendLocked(ev, now)
	if err == nil {
		err = l.flushLocked()
	}
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
// optional fsync) covers the whole batch.
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
	var err error
	for i := range evs {
		if err = l.appendLocked(evs[i], now); err != nil {
			break
		}
	}
	if err == nil {
		err = l.flushLocked()
	}
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
	for i := range evs {
		ev := evs[i]
		if ev.Offset < l.next {
			continue
		}
		if ev.Offset > l.next {
			if err = l.rollToLocked(ev.Offset); err != nil {
				break
			}
		}
		if err = l.appendLocked(ev, ev.Timestamp); err != nil {
			break
		}
		appended = true
	}
	if err == nil {
		err = l.flushLocked()
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
// a fresh one at base (> l.next), so replicated records landing past a
// leader-side hole never break the active segment's density.
func (l *Log) rollToLocked(base int64) error {
	active := l.segments[len(l.segments)-1]
	active.end = l.next
	active.sealed = true
	if err := l.persistRollLocked(base); err != nil {
		active.sealed = false
		active.end = 0
		return err
	}
	l.segments = append(l.segments, &segment{baseOffset: base, created: l.lastNow()})
	l.next = base
	return nil
}

// lastNow approximates "now" for bookkeeping timestamps on replica
// rolls from the newest record the log holds; replicated records carry
// their own leader-stamped timestamps, so this never reaches a reader.
func (l *Log) lastNow() time.Time {
	for i := len(l.segments) - 1; i >= 0; i-- {
		if rs := l.segments[i].records; len(rs) > 0 {
			return rs[len(rs)-1].ev.Timestamp
		}
	}
	return time.Time{}
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
// the semantics Fabric.Fetch and Log.ReadBytes share. Events stream out
// of the segment index directly; nothing beyond the returned slice is
// materialized.
func (l *Log) ReadBudget(offset int64, max, maxBytes int) ([]event.Event, error) {
	return l.ReadBudgetInto(offset, max, maxBytes, nil)
}

// ReadBudgetInto is ReadBudget appending into dst (reusing its
// capacity), so a steady-state consumer fetch allocates nothing once its
// receive slice has grown: the fetch session hands the same slice back
// on every poll. Returned events alias the log's records, as with
// ReadBudget. A nil dst behaves exactly like ReadBudget.
func (l *Log) ReadBudgetInto(offset int64, max, maxBytes int, dst []event.Event) ([]event.Event, error) {
	l.reads.Add(1)
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, ErrClosed
	}
	if offset < l.start || offset > l.next {
		return nil, fmt.Errorf("%w: offset %d not in [%d,%d]", ErrOffsetOutOfRange, offset, l.start, l.next)
	}
	if offset == l.next || max == 0 {
		return dst, nil
	}
	if max < 0 {
		max = 1 << 30
	}
	out := dst
	if out == nil {
		hint := max
		if hint > 64 {
			hint = 64
		}
		out = make([]event.Event, 0, hint)
	}
	total := 0
	for si := l.findSegment(offset); si < len(l.segments); si++ {
		seg := l.segments[si]
		idx := 0
		if offset > seg.baseOffset {
			// Records within a segment may start above baseOffset after
			// compaction; binary-search the first record >= offset.
			idx = searchRecords(seg.records, offset)
		}
		for ; idx < len(seg.records); idx++ {
			r := &seg.records[idx]
			if maxBytes > 0 {
				if total+r.size >= maxBytes && len(out) > 0 {
					return out, nil
				}
				total += r.size
			}
			out = append(out, r.ev)
			if len(out) >= max || (maxBytes > 0 && total >= maxBytes) {
				return out, nil
			}
		}
	}
	return out, nil
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
		rs := l.segments[j].records
		if rs[len(rs)-1].ev.Timestamp.Before(t) {
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
	rs := l.segments[best].records
	rlo, rhi := 0, len(rs)
	for rlo < rhi {
		mid := (rlo + rhi) / 2
		if rs[mid].ev.Timestamp.Before(t) {
			rlo = mid + 1
		} else {
			rhi = mid
		}
	}
	return rs[rlo].offset
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
	for _, seg := range l.segments {
		for _, r := range seg.records {
			if r.ev.Key != nil {
				latest[string(r.ev.Key)] = r.offset
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
			if r.ev.Key != nil && latest[string(r.ev.Key)] != r.offset {
				removed++
				l.bytes -= int64(r.size)
				seg.bytes -= r.size
				continue
			}
			kept = append(kept, r)
		}
		seg.records = kept
		if len(seg.records) != before {
			// Persist the hole-punched segment so replay does not
			// resurrect superseded records.
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
	if l.dir != "" {
		l.flushLocked()
		if l.activeFile != nil {
			l.activeFile.Close()
			l.activeFile = nil
		}
	}
	fired := l.notifyLocked(make([]func(), 0, 8))
	l.mu.Unlock()
	runNotifies(fired)
}

// searchRecords returns the index of the first record with offset >= off.
func searchRecords(rs []record, off int64) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].offset < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
