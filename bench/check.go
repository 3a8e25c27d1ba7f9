package main

import (
	"fmt"
	"sync"

	"repro/internal/event"
)

// checker validates everything a workload hands out. Per partition,
// offsets must increase (and, unless the consumer filters, be
// contiguous) and sequence numbers must increase; every header crc must
// match; every sequence number may be handed out once. finish then
// requires that exactly the acked sequence numbers were seen. The first
// violation is kept verbatim; each offending event counts as failed.
type checker struct {
	// hdrInKey selects where the header lives: the key (JSON workload)
	// or the front of the value.
	hdrInKey bool
	// contiguous requires offset == previous offset + 1 per partition;
	// off for the trigger path, which hands out pattern matches only.
	contiguous bool

	mu      sync.Mutex
	seen    []uint64 // bitset over sequence numbers
	handed  int64
	nextOff []int64 // per partition: next expected offset, -1 = none yet
	lastSeq []int64 // per partition: last sequence number, -1 = none yet
	failed  int64
	first   string
}

// maxSeq bounds the sequence numbers a run can generate; a header that
// decodes to more is a violation, not a reason to grow the bitset.
const maxSeq = 1 << 32

func newChecker(partitions int, hdrInKey, contiguous bool) *checker {
	c := &checker{
		hdrInKey:   hdrInKey,
		contiguous: contiguous,
		nextOff:    make([]int64, partitions),
		lastSeq:    make([]int64, partitions),
	}
	for i := range c.nextOff {
		c.nextOff[i], c.lastSeq[i] = -1, -1
	}
	return c
}

func (c *checker) violation(ev *event.Event, format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf("partition %d offset %d: ", ev.Partition, ev.Offset) + fmt.Sprintf(format, args...)
	}
}

// split returns the header and the bytes its crc covers.
func (c *checker) split(ev *event.Event) (hdr, body []byte) {
	if c.hdrInKey {
		return ev.Key, ev.Value
	}
	if len(ev.Value) < hdrLen {
		return nil, nil
	}
	return ev.Value[:hdrLen], ev.Value[hdrLen:]
}

// handOut checks one batch in hand-out order. For every event that
// passes, visit (when non-nil) receives its sequence number and due
// time.
func (c *checker) handOut(evs []event.Event, visit func(seq uint64, due int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		// Partition and offset come from the frame, not the payload: the
		// offset bookkeeping advances even past a corrupt event.
		p := ev.Partition
		if p < 0 || p >= len(c.nextOff) {
			c.violation(ev, "partition out of range")
			continue
		}
		if want := c.nextOff[p]; want >= 0 && (ev.Offset < want || c.contiguous && ev.Offset != want) {
			c.violation(ev, "offset out of order: want %d", want)
		}
		c.nextOff[p] = ev.Offset + 1
		hdr, body := c.split(ev)
		seq, due, ok := unstamp(hdr, body)
		if !ok {
			c.violation(ev, "crc mismatch (seq field %d)", seq)
			continue
		}
		if seq >= maxSeq {
			c.violation(ev, "seq %d was never generated", seq)
			continue
		}
		for seq/64 >= uint64(len(c.seen)) {
			c.seen = append(c.seen, 0)
		}
		if c.seen[seq/64]&(1<<(seq%64)) != 0 {
			c.violation(ev, "seq %d handed out twice", seq)
			continue
		}
		c.seen[seq/64] |= 1 << (seq % 64)
		if int64(seq) < c.lastSeq[p] {
			c.violation(ev, "seq %d after seq %d: reordered", seq, c.lastSeq[p])
			continue
		}
		c.lastSeq[p] = int64(seq)
		c.handed++
		if visit != nil {
			visit(seq, due)
		}
	}
}

// finish requires that every sequence number in [0, acked) for which
// want(seq) holds (nil = all) was handed out, and no other.
func (c *checker) finish(acked uint64, want func(seq uint64) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq := uint64(0); seq < acked || seq/64 < uint64(len(c.seen)); seq++ {
		got := seq/64 < uint64(len(c.seen)) && c.seen[seq/64]&(1<<(seq%64)) != 0
		exp := seq < acked && (want == nil || want(seq))
		if got == exp {
			continue
		}
		c.failed++
		if c.first == "" {
			if exp {
				c.first = fmt.Sprintf("acked seq %d was never handed out", seq)
			} else {
				c.first = fmt.Sprintf("seq %d was handed out but never acked", seq)
			}
		}
	}
}

// failLocked records a violation from inside a handOut visit, where the
// checker's lock is already held.
func (c *checker) failLocked(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// fail records a violation that is not tied to one event (a non-zero
// error counter, an under-replicated partition).
func (c *checker) fail(n int64, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += n
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

func (c *checker) result() (handed, failed int64, first string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handed, c.failed, c.first
}
