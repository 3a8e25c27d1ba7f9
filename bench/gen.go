package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/fsmon"
)

// hdrLen is the checker header every event carries: seq | due_ns |
// crc32, little endian. Byte-payload workloads put it at the front of
// the value; the JSON workload (trigger_fsmon), whose value must stay a
// JSON document, puts it in the key.
const hdrLen = 20

// epoch anchors the process monotonic clock: due times and hand-out
// times are both nanoseconds since epoch, read through nowNs.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// stamp writes the header for seq/due over body into hdr[:hdrLen].
func stamp(hdr []byte, seq uint64, due int64, body []byte) {
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(due))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:16]), crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(hdr[16:20], crc)
}

// unstamp decodes a header and reports whether its crc matches body.
func unstamp(hdr, body []byte) (seq uint64, due int64, ok bool) {
	if len(hdr) < hdrLen {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	due = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[:16]), crc32.IEEETable, body)
	return seq, due, crc == binary.LittleEndian.Uint32(hdr[16:20])
}

// generator builds every input a workload feeds the program from the
// run's seed, before the timed window opens: the load loops only stamp
// headers into pre-built buffers.
type generator struct {
	rng *rand.Rand
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed))}
}

// keys returns n random keys of size bytes.
func (g *generator) keys(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		g.rng.Read(out[i])
	}
	return out
}

// values returns n payload buffers of size bytes with random bodies;
// the first hdrLen bytes are left for stamp.
func (g *generator) values(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		g.rng.Read(out[i][hdrLen:])
	}
	return out
}

// batchOf returns one unstamped event per value, keyed round-robin
// over keys.
func batchOf(keys, values [][]byte) []event.Event {
	evs := make([]event.Event, len(values))
	for i := range evs {
		evs[i] = event.Event{Key: keys[i%len(keys)], Value: values[i]}
	}
	return evs
}

// stampValues stamps evs[i] with seq0+i and the given due time.
func stampValues(evs []event.Event, seq0 uint64, due int64) {
	for i := range evs {
		v := evs[i].Value
		stamp(v, seq0+uint64(i), due, v[hdrLen:])
	}
}

// fsOps is the op cycle of the generated filesystem stream: one create
// in four events, so a pattern on "created" filters exactly 3/4.
var fsOps = [4]fsmon.OpType{fsmon.OpCreate, fsmon.OpModify, fsmon.OpModify, fsmon.OpDelete}

// fsDocs returns n marshalled fsmon.FSEvent.Doc() documents with seeded
// paths and sizes; doc i has op fsOps[i%4].
func (g *generator) fsDocs(n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		ev := fsmon.FSEvent{
			Type: fsOps[i%len(fsOps)],
			Path: fmt.Sprintf("/lustre/proj-%04d/run-%06d/shard-%08x/output-%05d.h5", g.rng.Intn(10000), g.rng.Intn(1000000), g.rng.Uint32(), i),
			Size: g.rng.Int63n(1 << 40),
			FS:   fmt.Sprintf("fs%d", 1+g.rng.Intn(4)),
		}
		b, err := json.Marshal(ev.Doc())
		if err != nil {
			return nil, fmt.Errorf("gen: marshal fs doc: %w", err)
		}
		out[i] = b
	}
	return out, nil
}

// isCreate reports whether generated doc seq is a "created" event.
func isCreate(seq uint64) bool { return fsOps[seq%uint64(len(fsOps))] == fsmon.OpCreate }

// pacer is the open-loop scheduler: events are due at fixed intervals
// from start regardless of how the program keeps up, the caller sleeps
// to each 1 ms tick and sends everything that has come due, and the
// lateness of every send against its due time is recorded.
type pacer struct {
	start    int64 // ns since epoch of event 0's due time
	interval int64 // ns between events
	next     uint64
	late     []float64 // ms, one per event
}

const pacerTick = int64(time.Millisecond)

func newPacer(start int64, perSecond int) *pacer {
	return &pacer{start: start, interval: int64(time.Second) / int64(perSecond)}
}

// due returns event seq's due time.
func (p *pacer) due(seq uint64) int64 { return p.start + int64(seq)*p.interval }

// wait sleeps until the next event is due (rounded up to the 1 ms tick
// grid, so events due within one tick go out together) and returns the
// half-open range of event sequence numbers now due, capped at limit.
func (p *pacer) wait(limit uint64) (from, to uint64) {
	d := p.due(p.next)
	tick := p.start + (d-p.start+pacerTick-1)/pacerTick*pacerTick
	if s := tick - nowNs(); s > 0 {
		time.Sleep(time.Duration(s))
	}
	now := nowNs()
	from = p.next
	to = from
	for to < limit && p.due(to) <= now {
		to++
	}
	p.next = to
	return from, to
}

// sent records the lateness of event seq handed to the producer at now.
func (p *pacer) sent(seq uint64, now int64) {
	p.late = append(p.late, float64(now-p.due(seq))/1e6)
}
