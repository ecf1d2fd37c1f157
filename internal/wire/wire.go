// Package wire is the binary data plane of the decision-serving runtime: a
// compact length-prefixed framed protocol over persistent TCP connections,
// served by banditd next to the HTTP/JSON API (`banditd -listen-binary`).
// It exists to take transport encode/decode off the serving hot path — a
// step request/response round trip costs a handful of fixed-width reads
// and writes instead of an HTTP exchange plus two JSON documents — and to
// let the serving plane parallelize: the server runs one accept loop per
// registry shard, and clients route every instance's requests over the
// connection matching its registry shard (serve.Registry.ShardOf), so a
// connection's request stream stays on one shard's instances.
//
// # Framing
//
// Every message — request or response — is one frame (integers are
// little-endian):
//
//	[4] frame length: bytes after this field (header + payload + CRC)
//	[1] protocol version (1)
//	[1] flags: bit0 = payload CRC-32C trailer present, bit1 = async observe
//	[1] opcode
//	[1] status: 0 in requests; 0 = OK, else an error class in responses
//	[8] request id, echoed verbatim in the response
//	[…] payload (opcode-specific)
//	[4] CRC-32C (Castagnoli) of the payload, iff flags bit0
//
// Frames are capped (MaxFrame, default 16 MiB): an oversized length field
// is rejected before any allocation. Responses carry the CRC flag iff the
// request did, so integrity checking is a per-client choice with zero cost
// for clients that skip it (loopback, checksummed links).
//
// Payload scalars are fixed-width: u8/u32/u64/f64 (IEEE 754 bits), strings
// and byte blobs are a u32 length followed by the bytes, and id slices are
// a u32 count of i32s (-1 travels as 0xFFFFFFFF). Two opcodes off the hot
// path — create and list — carry the same JSON documents as the HTTP API
// inside their binary payload, so the versioned ScenarioSpec surface stays
// single-sourced.
//
// # Pipelining
//
// Requests on one connection are processed strictly in order and responses
// are written in request order; the request id is echoed so clients can
// verify the pairing. A client may keep many requests in flight — Client
// does: concurrent callers interleave frames on the shard's connection and
// a single reader goroutine matches responses back by queue order. The
// server flushes its write buffer only when the read buffer runs dry, so a
// pipelined burst is answered with a batched write.
//
// # Identity
//
// The binary plane is a transport, not a second implementation: requests
// dispatch into the same actor mailboxes as HTTP (through serve.Session),
// so a binary-served trajectory is bit-identical to the HTTP/JSON-served
// and serial core.Scheme trajectories — golden-tested across every
// committed scenario spec.
package wire

import "errors"

// Version is the protocol version carried by every frame.
const Version = 1

// DefaultMaxFrame caps a frame's length field (and therefore any payload
// allocation) unless overridden.
const DefaultMaxFrame = 16 << 20

// headerLen is the fixed frame header after the length field.
const headerLen = 12

// Op identifies a request kind.
type Op uint8

// Protocol opcodes.
const (
	// OpHello negotiates a connection: the response carries the registry
	// shard count (for connection affinity) and the server's frame cap.
	OpHello Op = 1
	// OpStep runs self-simulation slots: [id string][u32 slots] →
	// StepResult.
	OpStep Op = 2
	// OpObserve applies external observation batches: [id string][u32
	// batches]{[u32 n][n×i32 played][n×f64 rewards]} → [u32 applied][u32
	// slot]. With flags bit1 (async) the batches are enqueued
	// fire-and-forget and the response acks the enqueue with applied=0.
	OpObserve Op = 3
	// OpAssignment reads the current channel assignment: [id string] →
	// Assignment.
	OpAssignment Op = 4
	// OpCreate creates an instance; the payload is the HTTP API's
	// InstanceConfig JSON document, the response CreateResponse JSON.
	OpCreate Op = 5
	// OpDelete closes and removes an instance: [id string] → empty.
	OpDelete Op = 6
	// OpList lists hosted instances; the response is the HTTP API's
	// instance-list JSON document.
	OpList Op = 7
)

// String returns the opcode's wire name.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpStep:
		return "step"
	case OpObserve:
		return "observe"
	case OpAssignment:
		return "assignment"
	case OpCreate:
		return "create"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	default:
		return "unknown"
	}
}

// Frame flag bits.
const (
	// FlagCRC marks a payload CRC-32C trailer.
	FlagCRC = 1 << 0
	// FlagAsync marks an OpObserve request as fire-and-forget.
	FlagAsync = 1 << 1
)

// Response status codes. They map 1:1 onto the HTTP API's structured error
// codes (serve.Code*), so a client can surface the same typed errors on
// either plane. Byte 6 is retired and stays unassigned, so a peer built
// against an older table never reads a new meaning into it.
const (
	StatusOK             = 0
	StatusInvalidRequest = 1
	StatusInvalidSpec    = 2
	StatusNotFound       = 3
	StatusAlreadyExists  = 4
	StatusInstanceClosed = 5
	StatusInternal       = 7
)

// Decode errors. ReadFrame and the payload cursor return these (wrapped
// with context); a frame decoder never panics on hostile input — the fuzz
// suite holds it to that.
var (
	// ErrFrameTooLarge is a length field above the decoder's frame cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrFrameTooShort is a length field smaller than the fixed header.
	ErrFrameTooShort = errors.New("wire: frame shorter than header")
	// ErrVersion is an unsupported protocol version byte.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrChecksum is a CRC-32C trailer mismatch.
	ErrChecksum = errors.New("wire: payload checksum mismatch")
	// ErrShortPayload is a payload cursor read past the payload end (a
	// truncated or corrupt frame body).
	ErrShortPayload = errors.New("wire: truncated payload")
)
