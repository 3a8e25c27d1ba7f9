// Broker observability over the data plane: the OpStats request.
//
// Every broker already keeps its hot-path telemetry in an
// internal/metrics Registry — counters, gauges, bucketed latency/size
// histograms — plus the fabric's produce stage-trace ring
// (broker.ProduceTracer). OpStats snapshots all of it into one typed
// response, so operator tooling (octopus-cli stats / trace) can scrape
// any broker over the same authenticated wire connection it produces
// and fetches through, with no side-channel HTTP listener required.
//
// The server answers only authenticated connections. Both bodies
// tolerate trailing bytes, so later revisions can append fields
// without breaking old peers.
//
// Histograms travel sparsely: only non-empty buckets cross the wire as
// (index, count) pairs against the fixed log-linear bucket layout
// (metrics.BucketBounds), so an idle broker's snapshot stays small
// even though every histogram owns ~600 buckets.
package wire

import (
	"encoding/binary"

	"repro/internal/broker"
	"repro/internal/metrics"
)

// StatsReq asks for a broker's observability snapshot (OpStats). The
// body is empty; decoders ignore trailing bytes so future revisions
// can add filters (name prefixes, sections) compatibly.
type StatsReq struct{}

func (*StatsReq) V2Op() uint8                  { return v2OpStats }
func (*StatsReq) AppendBody(buf []byte) []byte { return buf }
func (*StatsReq) DecodeBody(b []byte) error    { return nil }

// StatEntry is one named counter or gauge value.
type StatEntry struct {
	Name  string
	Value int64
}

// StatBucket is one non-empty bucket of a sparse histogram: the index
// into the fixed log-linear layout plus its observation count.
type StatBucket struct {
	Index int
	Count int64
}

// StatHist is one bucketed histogram, sparse-encoded.
type StatHist struct {
	Name  string
	Count int64
	Sum   int64
	// Buckets lists only non-empty buckets, ascending by index.
	Buckets []StatBucket
}

// Quantile estimates the q-quantile from the sparse buckets, mirroring
// metrics.BucketSnapshot.Quantile so client-side renderers agree with
// the broker's own exposition.
func (h *StatHist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.Count-1)) + 1
	var cum int64
	for _, b := range h.Buckets {
		if cum+b.Count >= target {
			lo, hi := metrics.BucketBounds(b.Index)
			frac := float64(target-cum) / float64(b.Count)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += b.Count
	}
	if n := len(h.Buckets); n > 0 {
		_, hi := metrics.BucketBounds(h.Buckets[n-1].Index)
		return float64(hi)
	}
	return 0
}

// StatsTrace is one sampled produce from the stage-trace ring. StageNs
// is index-aligned with StatsResp.TraceStages, so a client renders
// stages by the names the server declares rather than compiled-in
// constants — a broker that adds a stage stays renderable.
type StatsTrace struct {
	StartUnixNano int64
	StageNs       []int64
	Events        int32
	Acks          int8
}

// StatsResp is a broker's observability snapshot.
type StatsResp struct {
	// BrokerID is the serving broker's id, -1 for unscoped
	// (single-listener) servers.
	BrokerID int
	Counters []StatEntry
	Gauges   []StatEntry
	Hists    []StatHist
	// TraceStages names the produce stages, index-aligned with every
	// trace's StageNs.
	TraceStages []string
	// TraceEvery is the 1-in-N produce sampling rate (0 = disabled);
	// TraceSampled the lifetime count of sampled produces.
	TraceEvery   uint64
	TraceSampled uint64
	Traces       []StatsTrace
}

func appendStatEntries(buf []byte, es []StatEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = appendStr(buf, e.Name)
		buf = appendInt(buf, e.Value)
	}
	return buf
}

func getStatEntries(b []byte) ([]StatEntry, []byte, error) {
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, nil, errShortMsg
	}
	var es []StatEntry
	if n > 0 {
		es = make([]StatEntry, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var e StatEntry
		if e.Name, b, err = getStr(b); err != nil {
			return nil, nil, err
		}
		if e.Value, b, err = getInt(b); err != nil {
			return nil, nil, err
		}
		es = append(es, e)
	}
	return es, b, nil
}

func (m *StatsResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(m.BrokerID))
	buf = appendStatEntries(buf, m.Counters)
	buf = appendStatEntries(buf, m.Gauges)
	buf = binary.AppendUvarint(buf, uint64(len(m.Hists)))
	for _, h := range m.Hists {
		buf = appendStr(buf, h.Name)
		buf = appendInt(buf, h.Count)
		buf = appendInt(buf, h.Sum)
		buf = binary.AppendUvarint(buf, uint64(len(h.Buckets)))
		for _, bk := range h.Buckets {
			buf = binary.AppendUvarint(buf, uint64(bk.Index))
			buf = appendInt(buf, bk.Count)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.TraceStages)))
	for _, s := range m.TraceStages {
		buf = appendStr(buf, s)
	}
	buf = binary.AppendUvarint(buf, m.TraceEvery)
	buf = binary.AppendUvarint(buf, m.TraceSampled)
	buf = binary.AppendUvarint(buf, uint64(len(m.Traces)))
	for _, t := range m.Traces {
		buf = appendInt(buf, t.StartUnixNano)
		buf = binary.AppendUvarint(buf, uint64(len(t.StageNs)))
		for _, d := range t.StageNs {
			buf = appendInt(buf, d)
		}
		buf = appendInt(buf, int64(t.Events))
		buf = appendInt(buf, int64(t.Acks))
	}
	return buf
}

func (m *StatsResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.BrokerID = int(v)
	if m.Counters, b, err = getStatEntries(b); err != nil {
		return err
	}
	if m.Gauges, b, err = getStatEntries(b); err != nil {
		return err
	}
	nh, b, err := getUint(b)
	if err != nil || nh > uint64(len(b)) {
		return errShortMsg
	}
	m.Hists = nil
	if nh > 0 {
		m.Hists = make([]StatHist, 0, nh)
	}
	for i := uint64(0); i < nh; i++ {
		var h StatHist
		if h.Name, b, err = getStr(b); err != nil {
			return err
		}
		if h.Count, b, err = getInt(b); err != nil {
			return err
		}
		if h.Sum, b, err = getInt(b); err != nil {
			return err
		}
		nb, rest, err := getUint(b)
		if err != nil || nb > uint64(len(rest)) {
			return errShortMsg
		}
		b = rest
		if nb > 0 {
			h.Buckets = make([]StatBucket, 0, nb)
		}
		for j := uint64(0); j < nb; j++ {
			var bk StatBucket
			var u uint64
			if u, b, err = getUint(b); err != nil {
				return err
			}
			bk.Index = int(u)
			if bk.Count, b, err = getInt(b); err != nil {
				return err
			}
			h.Buckets = append(h.Buckets, bk)
		}
		m.Hists = append(m.Hists, h)
	}
	nst, b, err := getUint(b)
	if err != nil || nst > uint64(len(b)) {
		return errShortMsg
	}
	m.TraceStages = nil
	if nst > 0 {
		m.TraceStages = make([]string, 0, nst)
	}
	for i := uint64(0); i < nst; i++ {
		var s string
		if s, b, err = getStr(b); err != nil {
			return err
		}
		m.TraceStages = append(m.TraceStages, s)
	}
	if m.TraceEvery, b, err = getUint(b); err != nil {
		return err
	}
	if m.TraceSampled, b, err = getUint(b); err != nil {
		return err
	}
	ntr, b, err := getUint(b)
	if err != nil || ntr > uint64(len(b)) {
		return errShortMsg
	}
	m.Traces = nil
	if ntr > 0 {
		m.Traces = make([]StatsTrace, 0, ntr)
	}
	for i := uint64(0); i < ntr; i++ {
		var t StatsTrace
		if t.StartUnixNano, b, err = getInt(b); err != nil {
			return err
		}
		nsg, rest, err := getUint(b)
		if err != nil || nsg > uint64(len(rest)) {
			return errShortMsg
		}
		b = rest
		if nsg > 0 {
			t.StageNs = make([]int64, 0, nsg)
		}
		for j := uint64(0); j < nsg; j++ {
			var d int64
			if d, b, err = getInt(b); err != nil {
				return err
			}
			t.StageNs = append(t.StageNs, d)
		}
		if v, b, err = getInt(b); err != nil {
			return err
		}
		t.Events = int32(v)
		if v, b, err = getInt(b); err != nil {
			return err
		}
		t.Acks = int8(v)
		m.Traces = append(m.Traces, t)
	}
	return nil
}

// appendExport folds one registry export into the response.
func (m *StatsResp) appendExport(ex *metrics.Export) {
	for _, c := range ex.Counters {
		m.Counters = append(m.Counters, StatEntry{Name: c.Name, Value: c.Value})
	}
	for _, g := range ex.Gauges {
		m.Gauges = append(m.Gauges, StatEntry{Name: g.Name, Value: g.Value})
	}
	for i := range ex.Hists {
		h := &ex.Hists[i]
		sh := StatHist{Name: h.Name, Count: h.Snap.Count, Sum: h.Snap.Sum}
		for idx, cnt := range h.Snap.Buckets {
			if cnt != 0 {
				sh.Buckets = append(sh.Buckets, StatBucket{Index: idx, Count: cnt})
			}
		}
		m.Hists = append(m.Hists, sh)
	}
}

// buildStatsResp snapshots the serving broker's observability state:
// the fabric registry, the wire server's own registry, and the produce
// stage-trace ring.
func buildStatsResp(s *Server) *StatsResp {
	resp := &StatsResp{BrokerID: s.LocalBroker}
	fex := s.Fabric.Metrics.Export()
	resp.appendExport(&fex)
	wex := s.Metrics().Export()
	resp.appendExport(&wex)
	if tr := s.Fabric.Tracer(); tr != nil {
		resp.TraceStages = append(resp.TraceStages, broker.TraceStageNames[:]...)
		resp.TraceEvery = tr.SampleEvery()
		recs, sampled := tr.Snapshot()
		resp.TraceSampled = sampled
		for i := range recs {
			r := &recs[i]
			resp.Traces = append(resp.Traces, StatsTrace{
				StartUnixNano: r.StartUnixNano,
				StageNs:       append([]int64(nil), r.StageNs[:]...),
				Events:        r.Events,
				Acks:          r.Acks,
			})
		}
	}
	return resp
}
