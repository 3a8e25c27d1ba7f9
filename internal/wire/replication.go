package wire

import (
	"encoding/binary"

	"repro/internal/event"
)

// Inter-broker replication messages.
//
// Replication is pull-based: a follower issues OpReplicaFetch against
// the partition leader at its own log end offset, appends the returned
// batch, and fetches again. The fetch offset doubles as the follower's
// ack for everything below it, so the steady-state protocol needs no
// extra round trip; OpReplicaAck exists to push the follower's new log
// end to the leader immediately after an append, advancing the high
// watermark (and acks=all producers waiting on it) half a round trip
// sooner than the next fetch would.
//
// Every replication message carries the follower's view of the leader
// epoch. A deposed leader rejects stale-epoch fetches with
// ErrFencedEpoch; a follower that discovers a newer epoch truncates
// its log to the new leader's end and re-fetches.

// ReplicaFetchReq is a follower's pull against the partition leader
// (OpReplicaFetch). Offset is the follower's log end — everything
// below it is implicitly acked.
type ReplicaFetchReq struct {
	Topic     string
	Partition int
	// Follower is the fetching broker's id.
	Follower int
	// LeaderEpoch is the epoch the follower believes current; the
	// leader fences fetches carrying a stale epoch.
	LeaderEpoch int64
	Offset      int64
	MaxEvents   int
	MaxBytes    int
	// WaitMaxMS long-polls an up-to-date follower on the leader's tail
	// waiter instead of returning empty, like FetchReq.WaitMaxMS.
	WaitMaxMS int
}

func (*ReplicaFetchReq) V2Op() uint8 { return v2OpReplicaFetch }

func (m *ReplicaFetchReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, int64(m.Follower))
	buf = appendInt(buf, m.LeaderEpoch)
	buf = appendInt(buf, m.Offset)
	buf = appendInt(buf, int64(m.MaxEvents))
	buf = appendInt(buf, int64(m.MaxBytes))
	return appendInt(buf, int64(m.WaitMaxMS))
}

func (m *ReplicaFetchReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *ReplicaFetchReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Follower = int(v)
	if m.LeaderEpoch, b, err = getInt(b); err != nil {
		return err
	}
	if m.Offset, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxEvents = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxBytes = int(v)
	if v, _, err = getInt(b); err != nil {
		return err
	}
	m.WaitMaxMS = int(v)
	return nil
}

// ReplicaFetchResp answers a follower pull; the events travel in the
// frame payload with offsets in FetchResp's dense-run form (compacted
// partitions have holes, so runs are required, not an optimization).
//
// Like FetchResp, a ReplicaFetchResp must not be copied by value once
// SetOffsets or DecodeBody has run: runs aliases the inline array.
type ReplicaFetchResp struct {
	NumEvents int
	// LeaderEpoch echoes the leader's current epoch; a follower seeing
	// it ahead of its own truncates and re-fetches.
	LeaderEpoch int64
	// HighWatermark is the partition HW at serve time.
	HighWatermark int64
	// LogStart and LogEnd frame the leader's log: a follower below
	// LogStart has fallen into the tiered-storage gap and resets to
	// LogStart; one above LogEnd diverged and truncates to LogEnd.
	LogStart int64
	LogEnd   int64

	runs    []offsetRun
	runsBuf [4]offsetRun
}

// SetOffsets records the events' offsets in dense-run form (the
// leader side of the encoding).
func (m *ReplicaFetchResp) SetOffsets(evs []event.Event) {
	m.runs = m.runsBuf[:0]
	for i := range evs {
		off := evs[i].Offset
		if n := len(m.runs); n > 0 && m.runs[n-1].start+m.runs[n-1].count == off {
			m.runs[n-1].count++
			continue
		}
		m.runs = append(m.runs, offsetRun{start: off, count: 1})
	}
}

// Stamp fills the container-carried fields on a decoded event batch,
// walking the dense runs — the follower side of the encoding.
func (m *ReplicaFetchResp) Stamp(evs []event.Event, topic string, partition int) {
	i := 0
	for _, r := range m.runs {
		for k := int64(0); k < r.count && i < len(evs); k++ {
			evs[i].Topic = topic
			evs[i].Partition = partition
			evs[i].Offset = r.start + k
			i++
		}
	}
}

func (m *ReplicaFetchResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, m.LeaderEpoch)
	buf = appendInt(buf, m.HighWatermark)
	buf = appendInt(buf, m.LogStart)
	buf = appendInt(buf, m.LogEnd)
	buf = appendInt(buf, int64(m.NumEvents))
	buf = binary.AppendUvarint(buf, uint64(len(m.runs)))
	for _, r := range m.runs {
		buf = appendInt(buf, r.start)
		buf = binary.AppendUvarint(buf, uint64(r.count))
	}
	return buf
}

func (m *ReplicaFetchResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	m.runs = m.runsBuf[:0]
	if m.LeaderEpoch, b, err = getInt(b); err != nil {
		return err
	}
	if m.HighWatermark, b, err = getInt(b); err != nil {
		return err
	}
	if m.LogStart, b, err = getInt(b); err != nil {
		return err
	}
	if m.LogEnd, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.NumEvents = int(v)
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	for i := uint64(0); i < n; i++ {
		var r offsetRun
		if r.start, b, err = getInt(b); err != nil {
			return err
		}
		var c uint64
		if c, b, err = getUint(b); err != nil {
			return err
		}
		r.count = int64(c)
		m.runs = append(m.runs, r)
	}
	return nil
}

// ReplicaAckReq pushes a follower's log end offset to the leader right
// after an append (OpReplicaAck), advancing the high watermark without
// waiting for the follower's next fetch. Answered with EmptyResp.
type ReplicaAckReq struct {
	Topic     string
	Partition int
	Follower  int
	// LeaderEpoch fences the ack exactly like a fetch.
	LeaderEpoch int64
	// LogEnd is the follower's log end offset after the append.
	LogEnd int64
}

func (*ReplicaAckReq) V2Op() uint8 { return v2OpReplicaAck }

func (m *ReplicaAckReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, int64(m.Follower))
	buf = appendInt(buf, m.LeaderEpoch)
	return appendInt(buf, m.LogEnd)
}

func (m *ReplicaAckReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *ReplicaAckReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Follower = int(v)
	if m.LeaderEpoch, b, err = getInt(b); err != nil {
		return err
	}
	m.LogEnd, _, err = getInt(b)
	return err
}
