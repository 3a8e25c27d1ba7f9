package main

import (
	"strings"
	"testing"

	"repro/internal/event"
)

// handedOut builds n stamped events of one partition, offsets from 0.
func handedOut(n int) []event.Event {
	g := newGenerator(1)
	evs := batchOf(g.keys(n, 8), g.values(n, 64))
	stampValues(evs, 0, 0)
	for i := range evs {
		evs[i].Offset = int64(i)
	}
	return evs
}

func checkFails(t *testing.T, c *checker, wantFailed int64, wantFirst string) {
	t.Helper()
	_, failed, first := c.result()
	if failed != wantFailed || !strings.Contains(first, wantFirst) {
		t.Errorf("failed = %d, first = %q; want %d and %q", failed, first, wantFailed, wantFirst)
	}
}

func TestCheckerAcceptsACleanRun(t *testing.T) {
	c := newChecker(1, false, true)
	evs := handedOut(200)
	seen := 0
	c.handOut(evs[:120], func(uint64, int64) { seen++ })
	c.handOut(evs[120:], func(uint64, int64) { seen++ })
	c.finish(200, nil)
	handed, failed, first := c.result()
	if handed != 200 || seen != 200 || failed != 0 || first != "" {
		t.Errorf("handed %d, visited %d, failed %d, first %q", handed, seen, failed, first)
	}
}

func TestCheckerCatchesGap(t *testing.T) {
	c := newChecker(1, false, true)
	evs := handedOut(10)
	c.handOut(append(evs[:4:4], evs[5:]...), nil)
	checkFails(t, c, 1, "offset out of order: want 4")
	c.finish(10, nil)
	checkFails(t, c, 2, "offset out of order")
}

func TestCheckerCatchesDuplicate(t *testing.T) {
	c := newChecker(1, false, false)
	evs := handedOut(10)
	dup := evs[3]
	dup.Offset = 10 // a redelivery under a fresh offset
	c.handOut(append(evs, dup), nil)
	checkFails(t, c, 1, "seq 3 handed out twice")
}

func TestCheckerCatchesReorder(t *testing.T) {
	c := newChecker(1, false, true)
	evs := handedOut(10)
	evs[4], evs[5] = evs[5], evs[4]
	evs[4].Offset, evs[5].Offset = 4, 5 // the log stored them swapped
	c.handOut(evs, nil)
	checkFails(t, c, 1, "reordered")

	c = newChecker(1, false, true)
	evs = handedOut(10)
	evs[4], evs[5] = evs[5], evs[4] // handed out in the wrong order
	c.handOut(evs, nil)
	_, failed, first := c.result()
	if failed == 0 || !strings.Contains(first, "offset out of order") {
		t.Errorf("swapped hand-out: failed %d, first %q", failed, first)
	}
}

func TestCheckerCatchesCRCFlip(t *testing.T) {
	c := newChecker(1, false, true)
	evs := handedOut(10)
	evs[7].Value[40] ^= 1
	c.handOut(evs, nil)
	checkFails(t, c, 1, "partition 0 offset 7: crc mismatch")
}

func TestCheckerFinishCatchesLossAndPhantom(t *testing.T) {
	c := newChecker(1, false, true)
	c.handOut(handedOut(8), nil)
	c.finish(10, nil)
	checkFails(t, c, 2, "acked seq 8 was never handed out")

	c = newChecker(1, false, true)
	c.handOut(handedOut(10), nil)
	c.finish(8, nil)
	checkFails(t, c, 2, "seq 8 was handed out but never acked")
}

func TestCheckerFilteredStreamWantsOnlyMatches(t *testing.T) {
	c := newChecker(1, true, false)
	var evs []event.Event
	for seq := uint64(0); seq < 16; seq++ {
		if !isCreate(seq) {
			continue
		}
		hdr, body := make([]byte, hdrLen), []byte(`{"value":{}}`)
		stamp(hdr, seq, 0, body)
		evs = append(evs, event.Event{Key: hdr, Value: body, Offset: int64(seq)})
	}
	c.handOut(evs, nil)
	c.finish(16, isCreate)
	if handed, failed, first := c.result(); handed != 4 || failed != 0 {
		t.Errorf("handed %d, failed %d, first %q; want 4 clean", handed, failed, first)
	}
}
