// Protocol v2: typed binary message headers.
//
// Every operation has its own typed message with hand-rolled binary
// encode/decode (no reflection, no per-header allocation on the encode
// side), spoken on every frame after the OpNegotiate handshake (see
// protocol.go). Frames are u32 headerLen | header | u32 payloadLen |
// payload, with these headers:
//
//	request header:  u8 op | u64 corr (BE) | message body
//	response header: u8 op | u8 errCode | u64 corr (BE) | body
//
// A response with errCode != 0 carries only the error detail string as
// its body; the error code maps back to the domain sentinel on the
// client so errors.Is works across the wire exactly as on the Direct
// transport. Message bodies use varint/zigzag integers and
// length-prefixed strings. Decoders tolerate trailing body bytes, so a
// future minor revision can append fields without breaking old peers.
//
// Fetch responses encode per-event offsets as a sequence of dense runs
// (start offset + count) rather than one entry per event: a
// contiguous read — the overwhelmingly common case — costs two varints
// regardless of batch size, and compaction gaps just add runs.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// ProtocolV2 is the protocol version this build speaks: the client
// offers it in the negotiate frame and the server answers with it.
// Negotiation agrees on v2 and nothing else, since every peer speaks
// all of it. The negotiate frame once carried a feature word; its bits
// 1<<0 through 1<<7 stay reserved and are never reused. 1<<0 and 1<<1
// named dense fetch offsets and typed error codes, 1<<2 the retired
// per-partition stream transport, and 1<<3 through 1<<7 cluster
// metadata, fetch sessions, metadata push, replication and stats. A
// peer that still sends the word is accepted and the word ignored.
const ProtocolV2 = 2

// v2 operation bytes, one per message pair.
const (
	v2OpPing uint8 = iota + 1
	v2OpAuth
	v2OpProduce
	v2OpFetch
	v2OpEndOffset
	v2OpStartOffset
	v2OpOffsetForTime
	v2OpTopicMeta
	v2OpJoinGroup
	v2OpLeaveGroup
	v2OpHeartbeat
	v2OpCommit
	v2OpCommitted
	// Four retired per-partition stream ops (open, batch, credit,
	// close). Their bytes stay reserved so every later op keeps its
	// value; a peer that still sends one is answered as an unknown op.
	_
	_
	_
	_
	// v2OpMetadata is cluster metadata discovery.
	v2OpMetadata
	// Multiplexed fetch session ops. SessionOpen and
	// SessionSub are ordinary request/response pairs (the client sends
	// sub removals one-way and lets the response drop); SessionBatch and
	// server-side SessionClose are pushed frames correlated by
	// sessionID<<32|subID; client-side SessionCredit and SessionClose
	// are one-way requests the server never answers.
	v2OpSessionOpen
	v2OpSessionSub
	v2OpSessionBatch
	v2OpSessionCredit
	v2OpSessionClose
	// v2OpMetadataPush is a server-pushed cluster metadata document,
	// frame-compatible with an OpMetadata response body.
	v2OpMetadataPush
	// Inter-broker replication ops: a follower pulls
	// a batch from the leader's log at its own end offset, and acks its
	// new end offset after appending, both fenced by the leader epoch.
	v2OpReplicaFetch
	v2OpReplicaAck
	// v2OpStats is the broker observability snapshot: the
	// exported metrics plus the produce stage-trace ring, as one
	// request/response pair.
	v2OpStats

	// v2OpMax is one past the highest assigned op byte (pool sizing).
	v2OpMax
)

// Msg is the wireMsg codec interface: every v2 protocol message —
// request or response — implements hand-rolled binary body
// encode/decode against it. AppendBody never allocates beyond growing
// buf; DecodeBody allocates only for decoded strings/slices.
type Msg interface {
	// AppendBody appends the message body to buf and returns it.
	AppendBody(buf []byte) []byte
	// DecodeBody decodes the message body, overwriting the receiver.
	// Trailing bytes are ignored (forward compatibility).
	DecodeBody(b []byte) error
}

// ReqMsg is a v2 request message: a Msg with its operation byte.
type ReqMsg interface {
	Msg
	// V2Op is the operation byte identifying the message pair.
	V2Op() uint8
}

// errShortMsg reports a truncated or malformed v2 message body.
var errShortMsg = errors.New("wire: truncated v2 message")

// --- primitive codecs ---

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func getStr(b []byte) (string, []byte, error) {
	n, rest, err := getUint(b)
	if err != nil || n > uint64(len(rest)) {
		return "", nil, errShortMsg
	}
	return string(rest[:n]), rest[n:], nil
}

func appendInt(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func getInt(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errShortMsg
	}
	return v, b[n:], nil
}

func appendUint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func getUint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortMsg
	}
	return v, b[n:], nil
}

// --- header prefix codecs ---

// v2 header prefix sizes: op byte + big-endian correlation ID for
// requests, plus an error-code byte for responses. Corr is fixed-width
// so the reader can match a response to its caller without decoding
// the body.
const (
	v2ReqPrefix  = 1 + 8
	v2RespPrefix = 2 + 8
)

// AppendRequestV2 encodes a complete v2 request header (prefix + body).
func AppendRequestV2(buf []byte, corr uint64, m ReqMsg) []byte {
	buf = append(buf, m.V2Op())
	buf = binary.BigEndian.AppendUint64(buf, corr)
	return m.AppendBody(buf)
}

// DecodeRequestV2 decodes a v2 request header into m, whose operation
// byte must match the header's.
func DecodeRequestV2(hdr []byte, m ReqMsg) (corr uint64, err error) {
	if len(hdr) < v2ReqPrefix {
		return 0, errShortMsg
	}
	if hdr[0] != m.V2Op() {
		return 0, fmt.Errorf("wire: v2 op %d, want %d", hdr[0], m.V2Op())
	}
	corr = binary.BigEndian.Uint64(hdr[1:v2ReqPrefix])
	return corr, m.DecodeBody(hdr[v2ReqPrefix:])
}

// decodeAnyRequestV2 parses a v2 request header of any operation — the
// server's read-loop entry point. The correlation ID is returned even
// when the body is malformed or the op unknown, so the server can
// answer with a typed error instead of dropping the connection. The
// returned message comes from the per-op pool (release with putReqMsg
// after dispatch); topic strings are interned through in when non-nil.
func decodeAnyRequestV2(hdr []byte, in *Interner) (corr uint64, op uint8, m ReqMsg, err error) {
	if len(hdr) < v2ReqPrefix {
		return 0, 0, nil, errShortMsg
	}
	op = hdr[0]
	corr = binary.BigEndian.Uint64(hdr[1:v2ReqPrefix])
	m = getReqMsg(op)
	if m == nil {
		return corr, op, nil, fmt.Errorf("%w %d", errUnknownOp, op)
	}
	if err := decodeReqBody(m, hdr[v2ReqPrefix:], in); err != nil {
		putReqMsg(op, m)
		return corr, op, nil, err
	}
	return corr, op, m, nil
}

// AppendResponseV2 encodes a success (errCode 0) v2 response header.
// op echoes the request's operation byte.
func AppendResponseV2(buf []byte, op uint8, corr uint64, m Msg) []byte {
	buf = append(buf, op, codeOK)
	buf = binary.BigEndian.AppendUint64(buf, corr)
	if m != nil {
		buf = m.AppendBody(buf)
	}
	return buf
}

// appendErrResponseV2 encodes an error v2 response header: the error is
// collapsed to its code plus the full detail string.
func appendErrResponseV2(buf []byte, op uint8, corr uint64, err error) []byte {
	buf = append(buf, op, errCodeOf(err))
	buf = binary.BigEndian.AppendUint64(buf, corr)
	return appendStr(buf, err.Error())
}

// decodeRespPrefixV2 splits a v2 response header into its prefix fields
// and body.
func decodeRespPrefixV2(hdr []byte) (op, code uint8, corr uint64, body []byte, err error) {
	if len(hdr) < v2RespPrefix {
		return 0, 0, 0, nil, errShortMsg
	}
	return hdr[0], hdr[1], binary.BigEndian.Uint64(hdr[2:v2RespPrefix]), hdr[v2RespPrefix:], nil
}

// DecodeResponseV2 decodes a v2 response header into m. When the header
// carries an error code, the returned error is the reconstructed domain
// sentinel (errors.Is-able) and m is left untouched.
func DecodeResponseV2(hdr []byte, m Msg) (op uint8, corr uint64, err error) {
	op, code, corr, body, err := decodeRespPrefixV2(hdr)
	if err != nil {
		return 0, 0, err
	}
	if code != codeOK {
		detail, _, derr := getStr(body)
		if derr != nil {
			return op, corr, derr
		}
		return op, corr, errFromCode(code, detail)
	}
	if m == nil {
		return op, corr, nil
	}
	return op, corr, m.DecodeBody(body)
}

// --- typed error codes ---

// Typed sentinel errors the wire protocol carries as compact error
// codes, re-exported here so SDK callers matching remote errors do not
// need to import every domain package. errors.Is with these works
// identically on the Direct transport and across the wire.
var (
	// ErrUnknownTopic reports an operation on a topic the fabric does
	// not know.
	ErrUnknownTopic = cluster.ErrNoTopic
	// ErrOffsetOutOfRange reports a fetch below the partition's retained
	// start or beyond its end.
	ErrOffsetOutOfRange = eventlog.ErrOffsetOutOfRange
	// ErrNotLeader reports a data-plane op against a partition whose
	// leader is unavailable.
	ErrNotLeader = broker.ErrLeaderUnavailable
	// ErrNoLeader reports a partition with no leader at all (every ISR
	// member is down). Unlike ErrNotLeader it is not rerouteable — no
	// metadata refresh can find a broker to serve it — so the router
	// retries with bounded backoff, waiting out a re-election, instead
	// of failing over. It wraps ErrNotLeader, so coarse checks keep
	// matching.
	ErrNoLeader = broker.ErrNoLeader
	// ErrFencedEpoch reports a replication op carrying a stale leader
	// epoch: the follower must refetch metadata, truncate to the new
	// leader's log and retry.
	ErrFencedEpoch = broker.ErrFencedEpoch
)

// v2 error codes. codeOK marks a success response; every other value
// names a domain sentinel (or codeOther for unclassified errors).
const (
	codeOK uint8 = iota
	codeOther
	codeLeaderUnavailable
	codeNotEnoughReplicas
	codeStaleGeneration
	codeDenied
	codeBadCredentials
	codeUnknownTopic
	codeOffsetOutOfRange
	codeNoPartition
	codeUnknownMember
	codeBrokerDown
	codeUnknownOp
	codeNoLeader
	codeFencedEpoch
)

// errTable is the single source of truth mapping domain sentinels to
// v2 error codes. Order matters: the first errors.Is match wins.
var errTable = []struct {
	code     uint8
	sentinel error
}{
	// ErrNoLeader wraps ErrLeaderUnavailable, so its entry must come
	// first or the coarser sentinel would claim every no-leader error.
	{codeNoLeader, broker.ErrNoLeader},
	{codeFencedEpoch, broker.ErrFencedEpoch},
	{codeLeaderUnavailable, broker.ErrLeaderUnavailable},
	{codeNotEnoughReplicas, broker.ErrNotEnoughReplicas},
	{codeStaleGeneration, broker.ErrStaleGeneration},
	{codeDenied, auth.ErrDenied},
	{codeBadCredentials, auth.ErrBadCredentials},
	{codeUnknownTopic, cluster.ErrNoTopic},
	{codeOffsetOutOfRange, eventlog.ErrOffsetOutOfRange},
	{codeNoPartition, broker.ErrNoPartition},
	{codeUnknownMember, broker.ErrUnknownMember},
	{codeBrokerDown, broker.ErrBrokerDown},
	{codeUnknownOp, errUnknownOp},
}

// errCodeOf classifies a server-side error as its v2 error code.
func errCodeOf(err error) uint8 {
	for _, e := range errTable {
		if errors.Is(err, e.sentinel) {
			return e.code
		}
	}
	return codeOther
}

// errFromCode reconstructs the domain sentinel from a v2 error code, so
// errors.Is works across the network. The detail string is the server's
// full error text, which already names the sentinel, so it becomes the
// error's text unchanged.
func errFromCode(code uint8, detail string) error {
	for _, e := range errTable {
		if e.code == code {
			return &remoteError{msg: detail, sentinel: e.sentinel}
		}
	}
	return errors.New(detail)
}

// remoteError is a server's error text with the sentinel its code names
// underneath.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// newReqMsg allocates the request message for a v2 op byte, nil for
// unknown ops.
func newReqMsg(op uint8) ReqMsg {
	switch op {
	case v2OpPing:
		return &PingReq{}
	case v2OpAuth:
		return &AuthReq{}
	case v2OpProduce:
		return &ProduceReq{}
	case v2OpFetch:
		return &FetchReq{}
	case v2OpEndOffset:
		return &EndOffsetReq{}
	case v2OpStartOffset:
		return &StartOffsetReq{}
	case v2OpOffsetForTime:
		return &OffsetForTimeReq{}
	case v2OpTopicMeta:
		return &TopicMetaReq{}
	case v2OpJoinGroup:
		return &JoinGroupReq{}
	case v2OpLeaveGroup:
		return &LeaveGroupReq{}
	case v2OpHeartbeat:
		return &HeartbeatReq{}
	case v2OpCommit:
		return &CommitReq{}
	case v2OpCommitted:
		return &CommittedReq{}
	case v2OpMetadata:
		return &MetadataReq{}
	case v2OpSessionOpen:
		return &SessionOpenReq{}
	case v2OpSessionSub:
		return &SessionSubReq{}
	case v2OpSessionCredit:
		return &SessionCreditReq{}
	case v2OpSessionClose:
		return &SessionCloseReq{}
	case v2OpReplicaFetch:
		return &ReplicaFetchReq{}
	case v2OpReplicaAck:
		return &ReplicaAckReq{}
	case v2OpStats:
		return &StatsReq{}
	}
	return nil
}

// reqMsgPools recycles decoded request messages on the server's v2 read
// path: with topics interned per connection, reusing the message struct
// is what takes steady-state data-plane header handling to 0 allocs/op.
// Handlers return messages after dispatch; DecodeBody fully overwrites
// every field, so reuse cannot leak state between requests.
var reqMsgPools [v2OpMax]sync.Pool

// getReqMsg returns a pooled request message for op, nil for unknown ops.
func getReqMsg(op uint8) ReqMsg {
	if int(op) >= len(reqMsgPools) {
		return nil
	}
	if v := reqMsgPools[op].Get(); v != nil {
		return v.(ReqMsg)
	}
	return newReqMsg(op)
}

// putReqMsg returns a request message to its op's pool.
func putReqMsg(op uint8, m ReqMsg) {
	if m == nil || int(op) >= len(reqMsgPools) {
		return
	}
	reqMsgPools[op].Put(m)
}

// newRespMsg allocates the response message for a v2 op byte, nil for
// unknown or body-less ops. Used by the response fuzzer; the client
// always knows its expected response type from the pending call.
func newRespMsg(op uint8) Msg {
	switch op {
	case v2OpPing, v2OpLeaveGroup, v2OpCommit:
		return &EmptyResp{}
	case v2OpAuth:
		return &AuthResp{}
	case v2OpProduce:
		return &ProduceResp{}
	case v2OpFetch:
		return &FetchResp{}
	case v2OpEndOffset, v2OpStartOffset, v2OpOffsetForTime, v2OpCommitted:
		return &OffsetResp{}
	case v2OpTopicMeta:
		return &TopicMetaResp{}
	case v2OpJoinGroup:
		return &JoinGroupResp{}
	case v2OpHeartbeat:
		return &HeartbeatResp{}
	case v2OpMetadata:
		return &MetadataResp{}
	case v2OpSessionOpen:
		return &SessionOpenResp{}
	case v2OpSessionSub:
		return &SessionSubResp{}
	case v2OpSessionBatch:
		return &FetchResp{}
	case v2OpMetadataPush:
		return &MetadataResp{}
	case v2OpReplicaFetch:
		return &ReplicaFetchResp{}
	case v2OpReplicaAck:
		return &EmptyResp{}
	case v2OpStats:
		return &StatsResp{}
	}
	return nil
}

// --- request messages ---

// PingReq is a liveness/auth probe (OpPing).
type PingReq struct{}

func (*PingReq) V2Op() uint8                  { return v2OpPing }
func (*PingReq) AppendBody(buf []byte) []byte { return buf }
func (*PingReq) DecodeBody(b []byte) error    { return nil }

// AuthReq authenticates the connection with an access key (OpAuth).
type AuthReq struct {
	AccessKeyID string
	Secret      string
}

func (*AuthReq) V2Op() uint8 { return v2OpAuth }

func (m *AuthReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.AccessKeyID)
	return appendStr(buf, m.Secret)
}

func (m *AuthReq) DecodeBody(b []byte) error {
	var err error
	if m.AccessKeyID, b, err = getStr(b); err != nil {
		return err
	}
	m.Secret, _, err = getStr(b)
	return err
}

// ProduceReq appends a batch of events; the events travel in the frame
// payload (OpProduce).
type ProduceReq struct {
	Topic     string
	Partition int
	Acks      int
	NumEvents int
}

func (*ProduceReq) V2Op() uint8 { return v2OpProduce }

func (m *ProduceReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, int64(m.Acks))
	return appendInt(buf, int64(m.NumEvents))
}

func (m *ProduceReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *ProduceReq) decodeInterned(b []byte, in *Interner) error {
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
	m.Acks = int(v)
	if v, _, err = getInt(b); err != nil {
		return err
	}
	m.NumEvents = int(v)
	return nil
}

// FetchReq reads events from one partition (OpFetch).
type FetchReq struct {
	Topic     string
	Partition int
	Offset    int64
	MaxEvents int
	MaxBytes  int
}

func (*FetchReq) V2Op() uint8 { return v2OpFetch }

func (m *FetchReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, m.Offset)
	buf = appendInt(buf, int64(m.MaxEvents))
	return appendInt(buf, int64(m.MaxBytes))
}

func (m *FetchReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *FetchReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if m.Offset, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxEvents = int(v)
	if v, _, err = getInt(b); err != nil {
		return err
	}
	m.MaxBytes = int(v)
	return nil
}

// offset-query requests share one body layout: topic + partition.

func appendTopicPartition(buf []byte, topic string, partition int) []byte {
	buf = appendStr(buf, topic)
	return appendInt(buf, int64(partition))
}

func getTopicPartition(b []byte) (topic string, partition int, rest []byte, err error) {
	if topic, b, err = getStr(b); err != nil {
		return "", 0, nil, err
	}
	v, rest, err := getInt(b)
	return topic, int(v), rest, err
}

// EndOffsetReq asks for the next offset to be assigned (OpEndOffset).
type EndOffsetReq struct {
	Topic     string
	Partition int
}

func (*EndOffsetReq) V2Op() uint8 { return v2OpEndOffset }
func (m *EndOffsetReq) AppendBody(buf []byte) []byte {
	return appendTopicPartition(buf, m.Topic, m.Partition)
}
func (m *EndOffsetReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}

// StartOffsetReq asks for the earliest retained offset (OpStartOffset).
type StartOffsetReq struct {
	Topic     string
	Partition int
}

func (*StartOffsetReq) V2Op() uint8 { return v2OpStartOffset }
func (m *StartOffsetReq) AppendBody(buf []byte) []byte {
	return appendTopicPartition(buf, m.Topic, m.Partition)
}
func (m *StartOffsetReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}

// OffsetForTimeReq asks for the first offset at or after a timestamp
// (OpOffsetForTime).
type OffsetForTimeReq struct {
	Topic     string
	Partition int
	TimeNano  int64
}

func (*OffsetForTimeReq) V2Op() uint8 { return v2OpOffsetForTime }

func (m *OffsetForTimeReq) AppendBody(buf []byte) []byte {
	buf = appendTopicPartition(buf, m.Topic, m.Partition)
	return appendInt(buf, m.TimeNano)
}

func (m *OffsetForTimeReq) DecodeBody(b []byte) error {
	var err error
	if m.Topic, m.Partition, b, err = getTopicPartition(b); err != nil {
		return err
	}
	m.TimeNano, _, err = getInt(b)
	return err
}

// TopicMetaReq asks for topic metadata (OpTopicMeta).
type TopicMetaReq struct {
	Topic string
}

func (*TopicMetaReq) V2Op() uint8                    { return v2OpTopicMeta }
func (m *TopicMetaReq) AppendBody(buf []byte) []byte { return appendStr(buf, m.Topic) }
func (m *TopicMetaReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, _, err = getStr(b)
	return err
}

// JoinGroupReq registers group membership (OpJoinGroup).
type JoinGroupReq struct {
	Group  string
	Member string
	Topics []string
}

func (*JoinGroupReq) V2Op() uint8 { return v2OpJoinGroup }

func (m *JoinGroupReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	buf = appendStr(buf, m.Member)
	buf = binary.AppendUvarint(buf, uint64(len(m.Topics)))
	for _, t := range m.Topics {
		buf = appendStr(buf, t)
	}
	return buf
}

func (m *JoinGroupReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	if m.Member, b, err = getStr(b); err != nil {
		return err
	}
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

// LeaveGroupReq removes a member (OpLeaveGroup).
type LeaveGroupReq struct {
	Group  string
	Member string
}

func (*LeaveGroupReq) V2Op() uint8 { return v2OpLeaveGroup }

func (m *LeaveGroupReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendStr(buf, m.Member)
}

func (m *LeaveGroupReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Member, _, err = getStr(b)
	return err
}

// HeartbeatReq refreshes membership and learns the generation
// (OpHeartbeat).
type HeartbeatReq struct {
	Group  string
	Member string
}

func (*HeartbeatReq) V2Op() uint8 { return v2OpHeartbeat }

func (m *HeartbeatReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendStr(buf, m.Member)
}

func (m *HeartbeatReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Member, _, err = getStr(b)
	return err
}

// CommitReq records a consumed position (OpCommit).
type CommitReq struct {
	Group      string
	Member     string
	Generation int
	Topic      string
	Partition  int
	Offset     int64
}

func (*CommitReq) V2Op() uint8 { return v2OpCommit }

func (m *CommitReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	buf = appendStr(buf, m.Member)
	buf = appendInt(buf, int64(m.Generation))
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	return appendInt(buf, m.Offset)
}

func (m *CommitReq) DecodeBody(b []byte) error {
	var err error
	var v int64
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	if m.Member, b, err = getStr(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Generation = int(v)
	if m.Topic, b, err = getStr(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	m.Offset, _, err = getInt(b)
	return err
}

// CommittedReq asks for a group's committed offset (OpCommitted).
type CommittedReq struct {
	Group     string
	Topic     string
	Partition int
}

func (*CommittedReq) V2Op() uint8 { return v2OpCommitted }

func (m *CommittedReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendTopicPartition(buf, m.Topic, m.Partition)
}

func (m *CommittedReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}

// --- response messages ---

// EmptyResp is the body-less success response (ping, leave, commit).
type EmptyResp struct{}

func (*EmptyResp) AppendBody(buf []byte) []byte { return buf }
func (*EmptyResp) DecodeBody(b []byte) error    { return nil }

// AuthResp reports the authenticated identity.
type AuthResp struct {
	Identity string
}

func (m *AuthResp) AppendBody(buf []byte) []byte { return appendStr(buf, m.Identity) }
func (m *AuthResp) DecodeBody(b []byte) error {
	var err error
	m.Identity, _, err = getStr(b)
	return err
}

// ProduceResp reports the batch's base offset.
type ProduceResp struct {
	Offset int64
}

func (m *ProduceResp) AppendBody(buf []byte) []byte { return appendInt(buf, m.Offset) }
func (m *ProduceResp) DecodeBody(b []byte) error {
	var err error
	m.Offset, _, err = getInt(b)
	return err
}

// OffsetResp carries a single offset (end/start/time queries and
// committed lookups).
type OffsetResp struct {
	Offset int64
}

func (m *OffsetResp) AppendBody(buf []byte) []byte { return appendInt(buf, m.Offset) }
func (m *OffsetResp) DecodeBody(b []byte) error {
	var err error
	m.Offset, _, err = getInt(b)
	return err
}

// offsetRuns carries a fetched batch's offsets as dense runs — one
// (start, count) pair per contiguous stretch — not one entry per event.
// A gapless read is two varints regardless of batch size, and decoded
// runs live in an inline array for the common case, so the steady-state
// header round trip allocates nothing. FetchResp and ReplicaFetchResp
// embed it; neither may be copied by value once its runs are set or
// decoded, since runs aliases the struct's own inline array.
type offsetRuns struct {
	runs    []eventlog.Run
	runsBuf [4]eventlog.Run
}

// setRuns records a log read's offset runs (the serving side).
func (o *offsetRuns) setRuns(runs []eventlog.Run) {
	o.runs = append(o.runsBuf[:0], runs...)
}

// Stamp fills the container-carried fields (topic, partition, offset)
// on a decoded event batch, walking the runs — the receiving side.
func (o *offsetRuns) Stamp(evs []event.Event, topic string, partition int) {
	for i := range evs {
		evs[i].Topic = topic
		evs[i].Partition = partition
	}
	i := 0
	for _, r := range o.runs {
		for k := int64(0); k < r.Count && i < len(evs); k++ {
			evs[i].Offset = r.Start + k
			i++
		}
	}
}

func (o *offsetRuns) appendRuns(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(o.runs)))
	for _, r := range o.runs {
		buf = appendInt(buf, r.Start)
		buf = binary.AppendUvarint(buf, uint64(r.Count))
	}
	return buf
}

func (o *offsetRuns) decodeRuns(b []byte) error {
	o.runs = o.runsBuf[:0]
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	for i := uint64(0); i < n; i++ {
		var r eventlog.Run
		if r.Start, b, err = getInt(b); err != nil {
			return err
		}
		var c uint64
		if c, b, err = getUint(b); err != nil {
			return err
		}
		r.Count = int64(c)
		o.runs = append(o.runs, r)
	}
	return nil
}

// FetchResp describes a fetched batch (OpFetch, and every pushed
// session batch); the payload is the records' event encodings, copied
// from the partition log's stored bytes. Offsets travel as dense runs
// (offsetRuns).
type FetchResp struct {
	NumEvents     int
	HighWatermark int64
	StartOffset   int64
	offsetRuns
}

// SetOffsets records the events' offsets in dense-run form.
func (m *FetchResp) SetOffsets(evs []event.Event) {
	m.runs = m.runsBuf[:0]
	for i := range evs {
		m.runs = eventlog.AppendRun(m.runs, evs[i].Offset, 1)
	}
}

func (m *FetchResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, m.HighWatermark)
	buf = appendInt(buf, m.StartOffset)
	buf = appendInt(buf, int64(m.NumEvents))
	return m.appendRuns(buf)
}

func (m *FetchResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	m.runs = m.runsBuf[:0]
	if m.HighWatermark, b, err = getInt(b); err != nil {
		return err
	}
	if m.StartOffset, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.NumEvents = int(v)
	return m.decodeRuns(b)
}

// TopicMetaResp carries topic metadata. The metadata document is
// deeply structured and strictly control-plane (one lookup per
// producer/consumer warm-up), so the body is a length-prefixed JSON
// blob rather than a hand-rolled layout.
type TopicMetaResp struct {
	Meta *cluster.TopicMeta
}

func (m *TopicMetaResp) AppendBody(buf []byte) []byte {
	jb, err := json.Marshal(m.Meta)
	if err != nil {
		// TopicMeta is a plain data struct; marshal cannot fail.
		panic("wire: marshal topic meta: " + err.Error())
	}
	buf = binary.AppendUvarint(buf, uint64(len(jb)))
	return append(buf, jb...)
}

func (m *TopicMetaResp) DecodeBody(b []byte) error {
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Meta = nil
	if n == 0 {
		return nil
	}
	if err := json.Unmarshal(b[:n], &m.Meta); err != nil {
		return fmt.Errorf("wire: bad topic meta: %w", err)
	}
	return nil
}

// JoinGroupResp carries the coordinator's assignment.
type JoinGroupResp struct {
	Generation int
	Partitions []broker.TP
}

func (m *JoinGroupResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(m.Generation))
	buf = binary.AppendUvarint(buf, uint64(len(m.Partitions)))
	for _, tp := range m.Partitions {
		buf = appendTopicPartition(buf, tp.Topic, tp.Partition)
	}
	return buf
}

func (m *JoinGroupResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Generation = int(v)
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Partitions = nil
	if n > 0 {
		m.Partitions = make([]broker.TP, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var tp broker.TP
		if tp.Topic, tp.Partition, b, err = getTopicPartition(b); err != nil {
			return err
		}
		m.Partitions = append(m.Partitions, tp)
	}
	return nil
}

// HeartbeatResp carries the current group generation.
type HeartbeatResp struct {
	Generation int
}

func (m *HeartbeatResp) AppendBody(buf []byte) []byte { return appendInt(buf, int64(m.Generation)) }
func (m *HeartbeatResp) DecodeBody(b []byte) error {
	v, _, err := getInt(b)
	m.Generation = int(v)
	return err
}

// --- v2 frame assembly ---

// appendFrameRequestV2 appends a complete v2 request frame.
func appendFrameRequestV2(buf []byte, corr uint64, m ReqMsg, payload []byte) ([]byte, error) {
	orig := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = AppendRequestV2(buf, corr, m)
	hlen := len(buf) - orig - 4
	if hlen > MaxHeader || len(payload) > MaxFrame {
		return buf[:orig], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[orig:], uint32(hlen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

// appendFrameResponseV2 appends a complete v2 response frame whose
// payload (a fetched batch's stored event encodings) is copied directly
// into buf. respErr != nil encodes an error response with no payload.
func appendFrameResponseV2(buf []byte, op uint8, corr uint64, m Msg, respErr error, payload []byte) ([]byte, error) {
	orig := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if respErr != nil {
		buf = appendErrResponseV2(buf, op, corr, respErr)
		payload = nil
	} else {
		buf = AppendResponseV2(buf, op, corr, m)
	}
	hlen := len(buf) - orig - 4
	if hlen > MaxHeader || len(payload) > MaxFrame {
		return buf[:orig], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[orig:], uint32(hlen))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}
