// Package wire is the Octopus binary network protocol: a length-framed
// request/response RPC carrying control headers and binary event
// batches. It lets producers and consumers on remote resources (edge,
// HPC login nodes, other clouds) talk to the cloud-hosted fabric, the
// hybrid deployment model of §IV. The wire client implements
// client.Transport, so SDK producers/consumers work unchanged over TCP.
//
// Frame layout (big endian):
//
//	u32 headerLen | header bytes | u32 payloadLen | payload bytes
//
// The payload is a concatenation of event.Marshal records for produce
// requests and fetch responses, empty otherwise.
//
// Headers have one encoding: each operation's typed binary message
// (protocolv2.go). A connection opens with one OpNegotiate exchange
// whose two headers are JSON (Request and Response, this file), the
// form every protocol version since the first can parse; it agrees on
// protocol v2, and every later frame in both directions is v2. A peer that cannot speak v2 gets an error answer
// to its first frame and the connection closes.
//
// The transport is pipelined: request headers carry a correlation ID
// that the server echoes on the matching response, so many requests
// from one client share a connection and responses may be delivered in
// any order (the server handles requests concurrently).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/event"
)

// Op names a negotiate-frame operation.
type Op string

// OpNegotiate is the connection-open handshake: the client's first
// frame, in JSON so that servers of every vintage can parse it. The
// server answers with the protocol version, or with an error when the
// client cannot speak v2.
const OpNegotiate Op = "negotiate"

// MaxFrame bounds a frame's payload to keep a misbehaving peer from
// exhausting memory (64 MiB, comfortably above the 6 MB trigger batch
// cap).
const MaxFrame = 64 << 20

// MaxHeader bounds a frame's header section independently of the
// payload bound. Headers are tens of bytes of binary on the data plane,
// so a headerLen near MaxFrame is hostile — both sides reject it before
// allocating or reading a byte of it. 8 MiB leaves generous room for
// the largest legitimate headers (control-plane documents such as a
// stats snapshot or a many-topic metadata response, and fetch
// responses whose offsets fragment into many runs), while still
// refusing the 64 MiB forced read a hostile length could demand.
const MaxHeader = 8 << 20

// ErrFrameTooLarge reports an over-sized frame section (header or
// payload, each checked against its own bound before allocation).
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// Request is the JSON header of the client's negotiate frame.
type Request struct {
	Op Op `json:"op"`
	// Corr is the request's correlation ID, echoed on the response.
	Corr uint64 `json:"corr,omitempty"`
	// MaxVersion is the highest protocol version the client speaks.
	MaxVersion int `json:"max_version,omitempty"`
}

// Response is the JSON header of the server's negotiate answer.
type Response struct {
	// Corr echoes the request's correlation ID.
	Corr uint64 `json:"corr,omitempty"`
	// Version is the protocol version the server selected.
	Version int `json:"version,omitempty"`
	// Err refuses the connection; ErrKind is its class ("unknown_op").
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
}

// maxPooledFrame bounds the capacity of a frame buffer a client writer
// or reader keeps for reuse: one giant fetch must not pin megabytes
// forever. On the server it is also the pending-bytes bound of a
// connection's write buffer: a session pump does not fetch its next
// batch while this much is pending, so the server's respWriter keeps
// both of its buffers (each at most maxRetainedWriteBuf) across flushes.
const maxPooledFrame = 1 << 20

// WriteFrame writes a frame with a JSON header (the negotiate frame).
func WriteFrame(w io.Writer, header any, payload []byte) error {
	hb, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("wire: marshal header: %w", err)
	}
	if len(hb) > MaxHeader || len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 0, 8+len(hb)+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(buf, hb...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err = w.Write(buf)
	return err
}

// readHeaderInto reads the raw header section of a frame into *buf,
// growing (and replacing) it as needed, and returns the filled slice.
// The header length is checked against MaxHeader before any allocation
// or read, so a hostile length cannot force a large read ahead of the
// payload's own bound.
func readHeaderInto(r io.Reader, buf *[]byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	hlen := binary.BigEndian.Uint32(lenBuf[:])
	if hlen > MaxHeader {
		return nil, ErrFrameTooLarge
	}
	hb := *buf
	if cap(hb) < int(hlen) {
		hb = make([]byte, hlen)
		*buf = hb
	}
	hb = hb[:hlen]
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, err
	}
	return hb, nil
}

// ReadHeader reads the header section of a frame, decoding the JSON
// header into header. The payload section must then be consumed with
// ReadPayloadInto before the next ReadHeader.
func ReadHeader(r io.Reader, header any) error {
	var hb []byte
	hb, err := readHeaderInto(r, &hb)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(hb, header); err != nil {
		return fmt.Errorf("wire: bad header: %w", err)
	}
	return nil
}

// ReadPayloadInto reads the payload section of a frame into buf when it
// fits buf's capacity, growing it otherwise, and returns the filled
// slice (nil for an empty payload). Passing nil buf always allocates
// fresh, which is ReadFrame's behavior.
func ReadPayloadInto(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(lenBuf[:])
	if plen > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if plen == 0 {
		return nil, nil
	}
	payload := buf
	if cap(payload) < int(plen) {
		payload = make([]byte, plen)
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ReadFrame reads one frame with a JSON header (the negotiate frame),
// decoding the header into header. The payload is a freshly allocated
// buffer, which the caller owns.
func ReadFrame(r io.Reader, header any) (payload []byte, err error) {
	if err := ReadHeader(r, header); err != nil {
		return nil, err
	}
	return ReadPayloadInto(r, nil)
}

// DecodeEvents splits a payload into n events. The payload buffer becomes
// the batch's arena: decoded keys and values alias it, so callers hand
// over ownership (the server's read loop allocates a fresh buffer per
// frame).
func DecodeEvents(payload []byte, n int) ([]event.Event, error) {
	out, pos, err := event.UnmarshalBatch(payload, n)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d events", len(payload)-pos, n)
	}
	return out, nil
}

// Deadline for protocol I/O on a single frame exchange.
const IOTimeout = 30 * time.Second
