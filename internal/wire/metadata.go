// Cluster metadata discovery: the OpMetadata request.
//
// A multi-listener cluster (internal/clusternet) runs one wire server
// per broker, each restricted to the partitions its broker leads.
// Clients therefore need a way to learn, from any single seed address,
// where everything else lives: OpMetadata returns the controller's
// metadata epoch, every broker's advertised address and liveness, and
// the requested topics' per-partition leadership. The client's router
// (router.go) bootstraps from it at dial time and re-fetches it
// whenever a data-plane request is refused with ErrNotLeader or a
// broker connection fails — the epoch tells it whether the fetched
// document is newer than what it already routes by.
//
// The server answers only authenticated connections. The same document
// is pushed (OpMetadataPush) to every authenticated connection on each
// epoch bump. Both bodies tolerate trailing bytes, so later revisions
// can append fields without breaking old peers.
package wire

import (
	"encoding/binary"

	"repro/internal/broker"
)

// MetadataReq asks for cluster metadata (OpMetadata). Topics filters
// the response; empty means every topic.
type MetadataReq struct {
	Topics []string
}

func (*MetadataReq) V2Op() uint8 { return v2OpMetadata }

func (m *MetadataReq) AppendBody(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Topics)))
	for _, t := range m.Topics {
		buf = appendStr(buf, t)
	}
	return buf
}

func (m *MetadataReq) DecodeBody(b []byte) error {
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Topics = nil
	if n > 0 {
		m.Topics = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var t string
		if t, b, err = getStr(b); err != nil {
			return err
		}
		m.Topics = append(m.Topics, t)
	}
	return nil
}

// BrokerMeta is one broker's entry in a metadata response.
type BrokerMeta struct {
	ID int
	// Addr is the broker's advertised wire address; empty for brokers
	// without their own listener (single-listener deployments).
	Addr string
	// Up reports liveness: a down broker stays listed so clients can
	// distinguish "failed" from "never existed".
	Up bool
}

// PartitionLeadership is one partition's placement in a metadata
// response.
type PartitionLeadership struct {
	// Leader is the broker id serving the partition, -1 if leaderless.
	Leader   int
	Replicas []int
	ISR      []int
}

// TopicLeadership is one topic's per-partition leadership.
type TopicLeadership struct {
	Name       string
	Partitions []PartitionLeadership
}

// ReplicaProgress is one follower's acked log end offset in the
// replication section.
type ReplicaProgress struct {
	Broker int
	LogEnd int64
}

// PartitionReplication is one tracked partition's replication state:
// the fencing epoch, the committed frontier, and how far each follower
// has acked behind the leader's log end.
type PartitionReplication struct {
	// ID is the partition id (the section lists only partitions the
	// replication subsystem tracks, so ids are explicit, not dense).
	ID            int
	LeaderEpoch   int64
	HighWatermark int64
	// LogEnd is the leader's log end offset; LogEnd - HighWatermark is
	// the uncommitted window, LogEnd - Followers[i].LogEnd a follower's
	// replication lag.
	LogEnd    int64
	Followers []ReplicaProgress
}

// TopicReplication is one topic's tracked partitions.
type TopicReplication struct {
	Name       string
	Partitions []PartitionReplication
}

// MetadataReplication is the trailing replication section of a
// metadata document — per-partition epochs, high watermarks, and
// follower progress. Nil on servers without the replication subsystem
// (and on documents from peers that predate the section, which simply
// end after the topics).
type MetadataReplication struct {
	Topics []TopicReplication
}

// MetadataResp is the cluster metadata document.
type MetadataResp struct {
	// Epoch is the controller metadata epoch the document was built at.
	// Routing tables keyed by it are invalidated by any smaller value
	// arriving later.
	Epoch   int64
	Brokers []BrokerMeta
	Topics  []TopicLeadership
	// Replication is the trailing replication section, appended after
	// the topics so peers that predate it decode the document
	// unchanged; nil when the serving fabric has no replication
	// subsystem attached.
	Replication *MetadataReplication
}

func appendIntSlice(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = appendInt(buf, int64(v))
	}
	return buf
}

func getIntSlice(b []byte) ([]int, []byte, error) {
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, nil, errShortMsg
	}
	var vs []int
	if n > 0 {
		vs = make([]int, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var v int64
		if v, b, err = getInt(b); err != nil {
			return nil, nil, err
		}
		vs = append(vs, int(v))
	}
	return vs, b, nil
}

func (m *MetadataResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(m.Brokers)))
	for _, br := range m.Brokers {
		buf = appendInt(buf, int64(br.ID))
		buf = appendStr(buf, br.Addr)
		up := byte(0)
		if br.Up {
			up = 1
		}
		buf = append(buf, up)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Topics)))
	for _, t := range m.Topics {
		buf = appendStr(buf, t.Name)
		buf = binary.AppendUvarint(buf, uint64(len(t.Partitions)))
		for _, p := range t.Partitions {
			buf = appendInt(buf, int64(p.Leader))
			buf = appendIntSlice(buf, p.Replicas)
			buf = appendIntSlice(buf, p.ISR)
		}
	}
	// The replication section rides after everything the original body
	// carried: decoders that predate it stop at the topics, decoders
	// that know it find it only when the encoder had one.
	if m.Replication != nil {
		buf = binary.AppendUvarint(buf, uint64(len(m.Replication.Topics)))
		for _, t := range m.Replication.Topics {
			buf = appendStr(buf, t.Name)
			buf = binary.AppendUvarint(buf, uint64(len(t.Partitions)))
			for _, p := range t.Partitions {
				buf = appendInt(buf, int64(p.ID))
				buf = appendInt(buf, p.LeaderEpoch)
				buf = appendInt(buf, p.HighWatermark)
				buf = appendInt(buf, p.LogEnd)
				buf = binary.AppendUvarint(buf, uint64(len(p.Followers)))
				for _, fo := range p.Followers {
					buf = appendInt(buf, int64(fo.Broker))
					buf = appendInt(buf, fo.LogEnd)
				}
			}
		}
	}
	return buf
}

func (m *MetadataResp) DecodeBody(b []byte) error {
	var err error
	if m.Epoch, b, err = getInt(b); err != nil {
		return err
	}
	nb, b, err := getUint(b)
	if err != nil || nb > uint64(len(b)) {
		return errShortMsg
	}
	m.Brokers = nil
	if nb > 0 {
		m.Brokers = make([]BrokerMeta, 0, nb)
	}
	for i := uint64(0); i < nb; i++ {
		var br BrokerMeta
		var v int64
		if v, b, err = getInt(b); err != nil {
			return err
		}
		br.ID = int(v)
		if br.Addr, b, err = getStr(b); err != nil {
			return err
		}
		if len(b) < 1 {
			return errShortMsg
		}
		br.Up = b[0] != 0
		b = b[1:]
		m.Brokers = append(m.Brokers, br)
	}
	nt, b, err := getUint(b)
	if err != nil || nt > uint64(len(b)) {
		return errShortMsg
	}
	m.Topics = nil
	if nt > 0 {
		m.Topics = make([]TopicLeadership, 0, nt)
	}
	for i := uint64(0); i < nt; i++ {
		var t TopicLeadership
		if t.Name, b, err = getStr(b); err != nil {
			return err
		}
		np, rest, err := getUint(b)
		if err != nil || np > uint64(len(rest)) {
			return errShortMsg
		}
		b = rest
		if np > 0 {
			t.Partitions = make([]PartitionLeadership, 0, np)
		}
		for j := uint64(0); j < np; j++ {
			var p PartitionLeadership
			var v int64
			if v, b, err = getInt(b); err != nil {
				return err
			}
			p.Leader = int(v)
			if p.Replicas, b, err = getIntSlice(b); err != nil {
				return err
			}
			if p.ISR, b, err = getIntSlice(b); err != nil {
				return err
			}
			t.Partitions = append(t.Partitions, p)
		}
		m.Topics = append(m.Topics, t)
	}
	m.Replication = nil
	if len(b) == 0 {
		// A document from a peer that predates the replication section.
		return nil
	}
	nr, b, err := getUint(b)
	if err != nil || nr > uint64(len(b)) {
		return errShortMsg
	}
	m.Replication = &MetadataReplication{}
	if nr > 0 {
		m.Replication.Topics = make([]TopicReplication, 0, nr)
	}
	for i := uint64(0); i < nr; i++ {
		var t TopicReplication
		if t.Name, b, err = getStr(b); err != nil {
			return err
		}
		np, rest, err := getUint(b)
		if err != nil || np > uint64(len(rest)) {
			return errShortMsg
		}
		b = rest
		if np > 0 {
			t.Partitions = make([]PartitionReplication, 0, np)
		}
		for j := uint64(0); j < np; j++ {
			var p PartitionReplication
			var v int64
			if v, b, err = getInt(b); err != nil {
				return err
			}
			p.ID = int(v)
			if p.LeaderEpoch, b, err = getInt(b); err != nil {
				return err
			}
			if p.HighWatermark, b, err = getInt(b); err != nil {
				return err
			}
			if p.LogEnd, b, err = getInt(b); err != nil {
				return err
			}
			nf, rest, err := getUint(b)
			if err != nil || nf > uint64(len(rest)) {
				return errShortMsg
			}
			b = rest
			if nf > 0 {
				p.Followers = make([]ReplicaProgress, 0, nf)
			}
			for k := uint64(0); k < nf; k++ {
				var fo ReplicaProgress
				if v, b, err = getInt(b); err != nil {
					return err
				}
				fo.Broker = int(v)
				if fo.LogEnd, b, err = getInt(b); err != nil {
					return err
				}
				p.Followers = append(p.Followers, fo)
			}
			t.Partitions = append(t.Partitions, p)
		}
		m.Replication.Topics = append(m.Replication.Topics, t)
	}
	return nil
}

// buildMetadataResp converts a fabric snapshot into the wire document.
// The document is only encoded, so it shares the snapshot's slices.
func buildMetadataResp(f *broker.Fabric, topics []string) *MetadataResp {
	snap := f.ClusterSnapshot(topics)
	resp := &MetadataResp{Epoch: snap.Epoch}
	for _, bs := range snap.Brokers {
		resp.Brokers = append(resp.Brokers, BrokerMeta{ID: bs.Info.ID, Addr: bs.Info.Addr, Up: bs.Up})
	}
	for _, tm := range snap.Topics {
		t := TopicLeadership{Name: tm.Name}
		for i := range tm.Partitions {
			pm := &tm.Partitions[i]
			t.Partitions = append(t.Partitions, PartitionLeadership{
				Leader:   pm.Leader,
				Replicas: pm.Replicas,
				ISR:      pm.ISR,
			})
		}
		resp.Topics = append(resp.Topics, t)
	}
	if r := f.Replicator(); r != nil {
		repl := &MetadataReplication{}
		for _, tm := range snap.Topics {
			t := TopicReplication{Name: tm.Name}
			for i := range tm.Partitions {
				st, ok := r.Status(broker.TP{Topic: tm.Name, Partition: tm.Partitions[i].ID})
				if !ok {
					// Untracked: no acks=all produce or replica fetch has
					// touched the partition yet.
					continue
				}
				p := PartitionReplication{
					ID:            tm.Partitions[i].ID,
					LeaderEpoch:   st.LeaderEpoch,
					HighWatermark: st.HighWatermark,
					LogEnd:        st.LogEnd,
				}
				for _, fo := range st.Followers {
					p.Followers = append(p.Followers, ReplicaProgress{Broker: fo.Broker, LogEnd: fo.LogEnd})
				}
				t.Partitions = append(t.Partitions, p)
			}
			if len(t.Partitions) > 0 {
				repl.Topics = append(repl.Topics, t)
			}
		}
		resp.Replication = repl
	}
	return resp
}
