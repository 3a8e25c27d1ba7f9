package eventlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

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
// The frames are also the log's in-memory copy: a segment's chunks,
// concatenated, are its file. The event bytes after the offset are the
// event's wire encoding too — the timestamp is stamped before the frame
// is encoded — so wire reads (ReadEncoded) copy them to the wire as
// they are, and only in-process reads decode them. Replay reads files in base-offset order,
// keeps their bytes, and stops at the first frame whose crc or length does
// not check out — a torn tail from a crash — truncating the file at the
// last good boundary and deleting any later segment files so the offset
// space stays contiguous.

// frameHeaderLen is the frame bytes before the event encoding:
// u32 crc | u32 bodyLen | u64 offset.
const frameHeaderLen = 16

func segFileName(base int64) string {
	return fmt.Sprintf("%020d.seg", base)
}

func segFilePath(dir string, base int64) string {
	return filepath.Join(dir, segFileName(base))
}

// appendFrame encodes one record frame into buf.
func appendFrame(buf []byte, offset int64, ev *event.Event) []byte {
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

// chunkAt returns the index of the chunk holding file position pos.
func (s *segment) chunkAt(pos uint32) int {
	return sort.Search(len(s.ends), func(i int) bool { return s.ends[i] > pos })
}

// frameIn returns the frame r indexes, which chunk c holds.
func (s *segment) frameIn(c int, r *record) []byte {
	f := s.chunks[c][r.pos-(s.ends[c]-uint32(len(s.chunks[c]))):]
	return f[:8+int(binary.BigEndian.Uint32(f[4:]))]
}

// frame returns the frame r indexes.
func (s *segment) frame(r *record) []byte { return s.frameIn(s.chunkAt(r.pos), r) }

// offset returns the offset of the record r indexes.
func (s *segment) offset(r *record) int64 {
	return int64(binary.BigEndian.Uint64(s.frame(r)[8:]))
}

// appendEvent decodes the event in frame f, stamped ts, onto dst; Key and
// Value alias the frame. A frame without headers — its length says so —
// is decoded from its first bytes and the index's timestamp alone, so a
// read does not touch the frame's tail, where the event encoding keeps
// the timestamp and the header count. Every frame was encoded by this log
// or checked by replay, so decoding cannot fail.
func appendEvent(dst []event.Event, f []byte, ts int64) []event.Event {
	be := binary.BigEndian
	off := int64(be.Uint64(f[8:]))
	k := int(be.Uint32(f[16:]))
	v := int(be.Uint32(f[20+k:]))
	if len(f) > frameHeaderLen+20+k+v { // headers follow the timestamp
		dst, _, _ = event.AppendUnmarshalBatch(dst, f[frameHeaderLen:], 1)
		dst[len(dst)-1].Offset = off
		return dst
	}
	dst = slices.Grow(dst, 1)[:len(dst)+1]
	ev := &dst[len(dst)-1]
	*ev = event.Event{Offset: off, Timestamp: time.Unix(0, ts)}
	if k > 0 {
		ev.Key = f[20 : 20+k : 20+k]
	}
	if v > 0 {
		ev.Value = f[24+k : 24+k+v : 24+k+v]
	}
	return dst
}

// pack concatenates the frames of s's records into one exactly sized
// buffer, makes it the segment's only chunk and returns it. Compaction
// and Truncate call it after dropping records, so the dropped frames are
// freed once no reader holds an event aliasing them.
func (s *segment) pack() []byte {
	n := 0
	for i := range s.records {
		n += len(s.frame(&s.records[i]))
	}
	buf := make([]byte, 0, n)
	for i := range s.records {
		r := &s.records[i]
		f := s.frame(r)
		r.pos = uint32(len(buf))
		buf = append(buf, f...)
	}
	s.chunks, s.ends = [][]byte{buf}, []uint32{uint32(len(buf))}
	return buf
}

// decodeFrame checks the frame at the start of b, returning its index
// record (pos unset), its offset and the number of bytes it spans. A
// short, oversized or corrupt frame returns n == 0: replay treats it as
// the torn tail of a crash.
func decodeFrame(b []byte) (rec record, off int64, n int) {
	if len(b) < 8 {
		return
	}
	bodyLen := int(binary.BigEndian.Uint32(b[4:]))
	if bodyLen < 8 || bodyLen > len(b)-8 {
		return
	}
	body := b[8 : 8+bodyLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b) {
		return
	}
	var one [1]event.Event
	evs, used, err := event.AppendUnmarshalBatch(one[:0], body[8:], 1)
	if err != nil || used != bodyLen-8 {
		return
	}
	rec = record{ts: evs[0].Timestamp.UnixNano(), size: uint32(evs[0].Size())}
	return rec, int64(binary.BigEndian.Uint64(body)), 8 + bodyLen
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
		if len(data) > math.MaxUint32 {
			return fmt.Errorf("eventlog: replay %s: %d bytes exceed a segment's 4 GiB", path, len(data))
		}
		seg := &segment{baseOffset: base}
		good := 0
		corrupt := false
		for good < len(data) {
			rec, off, n := decodeFrame(data[good:])
			if n == 0 {
				corrupt = true
				break
			}
			rec.pos = uint32(good)
			seg.records = append(seg.records, rec)
			seg.bytes += int(rec.size)
			seg.lastAppend = time.Unix(0, rec.ts)
			l.next = off + 1
			good += n
		}
		// The file's bytes are the segment's chunk, not a copy.
		seg.chunks, seg.ends = [][]byte{data[:good:good]}, []uint32{uint32(good)}
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
	return l.openActiveFile(l.segments[len(l.segments)-1].baseOffset)
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

// persistRollLocked closes the old active file and opens the file for
// the new segment. Callers hold l.mu.
func (l *Log) persistRollLocked(newBase int64) error {
	if l.dir == "" {
		return nil
	}
	if l.activeFile != nil {
		l.activeFile.Close()
		l.activeFile = nil
	}
	return l.openActiveFile(newBase)
}

// writeLocked appends one chunk to the active segment file in one write.
// Callers hold l.mu.
func (l *Log) writeLocked(chunk []byte) error {
	if l.dir == "" {
		return nil
	}
	if l.activeFile == nil {
		return fmt.Errorf("eventlog: no active segment file")
	}
	if _, err := l.activeFile.Write(chunk); err != nil {
		return fmt.Errorf("eventlog: append segment: %w", err)
	}
	return nil
}

// syncLocked fsyncs the active segment file when Config.Fsync is set.
// Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.dir == "" || !l.cfg.Fsync {
		return nil
	}
	if err := l.activeFile.Sync(); err != nil {
		return fmt.Errorf("eventlog: fsync segment: %w", err)
	}
	return nil
}

// rewriteSegmentLocked packs a segment's surviving records into one
// chunk and, for file-backed logs, writes that chunk as the segment's
// file via a temp file + rename. Compact and Truncate use it. Callers
// hold l.mu. If the rewritten segment is the active one, the append
// handle is reopened on the new file.
func (l *Log) rewriteSegmentLocked(seg *segment) error {
	buf := seg.pack()
	if l.dir == "" {
		return nil
	}
	path := segFilePath(l.dir, seg.baseOffset)
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
		l.bytes -= int64(seg.bytes)
	}
	l.removeSegmentFiles(dropped)
	clear(dropped) // unreachable through the backing array, as in EnforceRetention
	l.segments = l.segments[:cut+1]
	seg := l.segments[cut]
	keep := seg.search(offset)
	for i := keep; i < len(seg.records); i++ {
		l.bytes -= int64(seg.records[i].size)
		seg.bytes -= int(seg.records[i].size)
	}
	seg.records = seg.records[:keep]
	l.next = offset
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
	// Rewriting the (empty) new active segment truncates any stale file
	// sharing its base offset and reopens the append handle.
	return l.rewriteSegmentLocked(l.segments[len(l.segments)-1])
}

// Dir returns the backing directory ("" for an in-memory log).
func (l *Log) Dir() string { return l.dir }

// Sync fsyncs the active segment file of a file-backed log regardless
// of Config.Fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeFile != nil {
		if err := l.activeFile.Sync(); err != nil {
			return fmt.Errorf("eventlog: fsync segment: %w", err)
		}
	}
	return nil
}
