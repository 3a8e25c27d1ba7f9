package eventlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
)

// On-disk layout (one directory per partition log):
//
//	<dir>/<baseOffset, 20 decimal digits>.seg
//
// Each segment file is a sequence of framed records:
//
//	u32 crc32(IEEE, over body) | u32 bodyLen | body
//	body = u64 offset | event.Marshal bytes (key, value, timestamp, headers)
//
// Records are appended with one write per batch and no fsync unless
// Config.Fsync is set. Replay reads files in base-offset order and stops
// at the first frame whose crc or length does not check out — a torn
// tail from a crash — truncating the file at the last good boundary and
// deleting any later segment files so the offset space stays contiguous.

const recordHeaderLen = 8 // u32 crc | u32 bodyLen

func segFileName(base int64) string {
	return fmt.Sprintf("%020d.seg", base)
}

func segFilePath(dir string, base int64) string {
	return filepath.Join(dir, segFileName(base))
}

// appendRecordFrame encodes one record frame into buf.
func appendRecordFrame(buf []byte, offset int64, ev *event.Event) []byte {
	hdrAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // crc + len placeholders
	bodyAt := len(buf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(offset))
	buf = ev.AppendMarshal(buf)
	body := buf[bodyAt:]
	binary.BigEndian.PutUint32(buf[hdrAt:], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(buf[hdrAt+4:], uint32(len(body)))
	return buf
}

// decodeRecordFrame decodes one frame from b, returning the record and
// the number of bytes consumed. A short, oversized or corrupt frame
// returns ok=false: replay treats it as the torn tail of a crash.
func decodeRecordFrame(b []byte) (rec record, n int, ok bool) {
	if len(b) < recordHeaderLen {
		return record{}, 0, false
	}
	crc := binary.BigEndian.Uint32(b)
	bodyLen := int(binary.BigEndian.Uint32(b[4:]))
	if bodyLen < 8 || bodyLen > len(b)-recordHeaderLen {
		return record{}, 0, false
	}
	body := b[recordHeaderLen : recordHeaderLen+bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return record{}, 0, false
	}
	off := int64(binary.BigEndian.Uint64(body))
	ev, used, err := event.Unmarshal(body[8:])
	if err != nil || used != bodyLen-8 {
		return record{}, 0, false
	}
	ev.Offset = off
	return record{offset: off, size: ev.Size(), ev: ev}, recordHeaderLen + bodyLen, true
}

// Open creates a log from cfg. With cfg.Dir unset it is equivalent to
// New. With cfg.Dir set, existing segment files under the directory are
// replayed to rebuild the in-memory index (recovering the start/next
// offsets and every surviving record), a torn tail is truncated at the
// last intact frame, and subsequent appends persist to segment files.
func Open(cfg Config) (*Log, error) {
	cfg.fill()
	l := &Log{cfg: cfg}
	if cfg.Dir == "" {
		l.segments = []*segment{{}}
		return l, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: open %s: %w", cfg.Dir, err)
	}
	l.dir = cfg.Dir
	bases, err := listSegFiles(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		l.segments = []*segment{{}}
		return l, l.openActiveFile(0)
	}
	if err := l.replay(bases); err != nil {
		return nil, err
	}
	return l, nil
}

// listSegFiles returns the base offsets of every segment file in dir,
// sorted ascending.
func listSegFiles(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: read dir %s: %w", dir, err)
	}
	var bases []int64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		base, err := strconv.ParseInt(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// replay rebuilds the in-memory segment index from the files named by
// bases. The last file becomes the active segment; earlier files are
// sealed with end = the next file's base offset. On a corrupt or torn
// frame the file is truncated at the last good boundary and every later
// file is deleted, so recovery always yields a contiguous offset space.
func (l *Log) replay(bases []int64) error {
	l.start = bases[0]
	l.next = bases[0]
	for i, base := range bases {
		path := segFilePath(l.dir, base)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("eventlog: replay %s: %w", path, err)
		}
		seg := &segment{baseOffset: base}
		good := 0
		corrupt := false
		for len(data[good:]) > 0 {
			rec, n, ok := decodeRecordFrame(data[good:])
			if !ok {
				corrupt = true
				break
			}
			seg.records = append(seg.records, rec)
			seg.bytes += rec.size
			if seg.created.IsZero() {
				seg.created = rec.ev.Timestamp
			}
			seg.lastAppend = rec.ev.Timestamp
			l.next = rec.offset + 1
			good += n
		}
		l.bytes += int64(seg.bytes)
		l.segments = append(l.segments, seg)
		if corrupt {
			if err := os.Truncate(path, int64(good)); err != nil {
				return fmt.Errorf("eventlog: truncate torn tail %s: %w", path, err)
			}
			for _, later := range bases[i+1:] {
				os.Remove(segFilePath(l.dir, later))
			}
			break
		}
	}
	// Seal everything but the last replayed segment; the last one
	// becomes the active segment and receives new appends.
	for i := 0; i < len(l.segments)-1; i++ {
		l.segments[i].sealed = true
		l.segments[i].end = l.segments[i+1].baseOffset
	}
	active := l.segments[len(l.segments)-1]
	if active.sealed {
		active.sealed = false
	}
	return l.openActiveFile(active.baseOffset)
}

// openActiveFile opens (creating if needed) the append handle for the
// active segment's file.
func (l *Log) openActiveFile(base int64) error {
	f, err := os.OpenFile(segFilePath(l.dir, base), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: open segment: %w", err)
	}
	l.activeFile = f
	return nil
}

// persistRollLocked flushes pending frames to the old active file,
// closes it and opens the file for the new segment. Callers hold l.mu.
func (l *Log) persistRollLocked(newBase int64) error {
	if l.dir == "" {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.activeFile != nil {
		l.activeFile.Close()
		l.activeFile = nil
	}
	return l.openActiveFile(newBase)
}

// flushLocked writes the pending encoded frames to the active segment
// file in one write. Callers hold l.mu.
func (l *Log) flushLocked() error {
	if l.dir == "" || len(l.wbuf) == 0 {
		return nil
	}
	if l.activeFile == nil {
		return fmt.Errorf("eventlog: no active segment file")
	}
	if _, err := l.activeFile.Write(l.wbuf); err != nil {
		return fmt.Errorf("eventlog: append segment: %w", err)
	}
	l.wbuf = l.wbuf[:0]
	if l.cfg.Fsync {
		if err := l.activeFile.Sync(); err != nil {
			return fmt.Errorf("eventlog: fsync segment: %w", err)
		}
	}
	return nil
}

// rewriteSegmentLocked re-encodes a segment's surviving records into its
// file via a temp file + rename, used by Compact and Truncate. Callers
// hold l.mu. If the rewritten segment is the active one, the append
// handle is reopened on the new file.
func (l *Log) rewriteSegmentLocked(seg *segment) error {
	if l.dir == "" {
		return nil
	}
	path := segFilePath(l.dir, seg.baseOffset)
	var buf []byte
	for i := range seg.records {
		r := &seg.records[i]
		buf = appendRecordFrame(buf, r.offset, &r.ev)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("eventlog: rewrite segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("eventlog: rewrite segment: %w", err)
	}
	if !seg.sealed {
		if l.activeFile != nil {
			l.activeFile.Close()
		}
		return l.openActiveFile(seg.baseOffset)
	}
	return nil
}

// removeSegmentFiles deletes the files backing dropped segments
// (best effort — a leftover file below the start offset is skipped by
// the next replay's contiguity rules only if deletion succeeded, so
// callers should treat persistent failures as disk trouble).
func (l *Log) removeSegmentFiles(segs []*segment) {
	if l.dir == "" {
		return
	}
	for _, seg := range segs {
		os.Remove(segFilePath(l.dir, seg.baseOffset))
	}
}

// Truncate discards every record at or above offset — the fencing step
// a follower takes when a new leader's log ends below its own. The log
// end moves back to max(offset, start); segment files above the cut are
// deleted, the cut segment is rewritten and sealed at the cut, and a
// fresh active segment starts at the new end. Truncating at or past the
// current end is a no-op.
func (l *Log) Truncate(offset int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if offset >= l.next {
		return nil
	}
	if offset < l.start {
		offset = l.start
	}
	// Drop whole segments above the cut, then trim the cut segment.
	cut := l.findSegment(offset)
	if cut >= len(l.segments) {
		cut = len(l.segments) - 1
	}
	dropped := l.segments[cut+1:]
	for _, seg := range dropped {
		for i := range seg.records {
			l.bytes -= int64(seg.records[i].size)
		}
	}
	l.removeSegmentFiles(dropped)
	clear(dropped) // unreachable through the backing array, as in EnforceRetention
	l.segments = l.segments[:cut+1]
	seg := l.segments[cut]
	keep := searchRecords(seg.records, offset)
	for i := keep; i < len(seg.records); i++ {
		l.bytes -= int64(seg.records[i].size)
		seg.bytes -= seg.records[i].size
	}
	seg.records = seg.records[:keep]
	l.next = offset
	l.wbuf = l.wbuf[:0]
	if l.dir != "" && l.activeFile != nil {
		l.activeFile.Close()
		l.activeFile = nil
	}
	// The cut segment may carry compaction holes, which the active
	// segment must never have (reads derive its end from the record
	// count). Seal it at the cut and roll a fresh, empty active segment
	// at the new end — unless the cut emptied it and it shares the new
	// active's base offset, in which case it is simply replaced.
	if len(seg.records) == 0 && seg.baseOffset == offset {
		l.segments = l.segments[:cut]
	} else {
		seg.sealed = true
		seg.end = offset
		if err := l.rewriteSegmentLocked(seg); err != nil {
			return err
		}
	}
	l.segments = append(l.segments, &segment{baseOffset: offset})
	if l.dir != "" {
		// Rewriting the (empty) new active segment truncates any stale
		// file sharing its base offset and reopens the append handle.
		return l.rewriteSegmentLocked(l.segments[len(l.segments)-1])
	}
	return nil
}

// Dir returns the backing directory ("" for an in-memory log).
func (l *Log) Dir() string { return l.dir }

// Sync flushes pending frames and, when file-backed, fsyncs the active
// segment file regardless of Config.Fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dir == "" {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.activeFile != nil {
		if err := l.activeFile.Sync(); err != nil {
			return fmt.Errorf("eventlog: fsync segment: %w", err)
		}
	}
	return nil
}
