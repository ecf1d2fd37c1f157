package wire

import (
	"errors"
	"net/http"

	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
)

// Payload codecs for the serving plane's result types, shared by server
// and client so the two sides cannot drift. Slot counters travel as i64
// (they are unbounded and DecidedSlot starts at -1); per-request counts as
// u32.

func putAssignment(e *Encoder, a *serve.Assignment) {
	e.PutU64(uint64(int64(a.Slot)))
	e.PutU64(uint64(int64(a.DecidedSlot)))
	e.PutInts(a.Winners)
	e.PutInts(a.Strategy)
	e.PutF64(a.EstimatedWeight)
}

// readAssignment decodes into a, reusing its slice capacity.
func readAssignment(d *Decoder, a *serve.Assignment) {
	a.Slot = int(int64(d.U64()))
	a.DecidedSlot = int(int64(d.U64()))
	a.Winners = d.Ints(a.Winners)
	a.Strategy = d.Ints(a.Strategy)
	a.EstimatedWeight = d.F64()
}

func putStepResult(e *Encoder, r *serve.StepResult) {
	e.PutU32(uint32(r.Slots))
	e.PutU64(uint64(int64(r.Slot)))
	e.PutF64(r.Observed)
	e.PutF64(r.ObservedKbps)
	e.PutU32(uint32(r.Decisions))
	putAssignment(e, &r.Assignment)
}

// readStepResult decodes into r, reusing its assignment slice capacity.
func readStepResult(d *Decoder, r *serve.StepResult) {
	r.Slots = int(d.U32())
	r.Slot = int(int64(d.U64()))
	r.Observed = d.F64()
	r.ObservedKbps = d.F64()
	r.Decisions = int(d.U32())
	readAssignment(d, &r.Assignment)
}

func putObserveResult(e *Encoder, r *serve.ObserveResult) {
	e.PutU32(uint32(r.Applied))
	e.PutU64(uint64(int64(r.Slot)))
}

func readObserveResult(d *Decoder, r *serve.ObserveResult) {
	r.Applied = int(d.U32())
	r.Slot = int(int64(d.U64()))
}

// Hello carries the server's connection-negotiation response: the registry
// shard count (so clients can open one shard-affine connection per shard)
// and the server's frame cap.
type Hello struct {
	Shards   int
	MaxFrame int
}

func putHello(e *Encoder, h *Hello) {
	e.PutU32(uint32(h.Shards))
	e.PutU32(uint32(h.MaxFrame))
}

func readHello(d *Decoder, h *Hello) {
	h.Shards = int(d.U32())
	h.MaxFrame = int(d.U32())
}

// errStatus maps a serving-plane error onto its wire status byte; the
// mapping mirrors the HTTP layer's instanceErrorStatus/handleCreate cases
// so a failure surfaces with the same class on either plane.
func errStatus(err error) byte {
	var ke *spec.KindError
	var fe *spec.FieldError
	var ve *spec.VersionError
	switch {
	case errors.Is(err, serve.ErrClosed):
		return StatusInstanceClosed
	case errors.Is(err, serve.ErrExists):
		return StatusAlreadyExists
	case errors.As(err, &ke) || errors.As(err, &fe) || errors.As(err, &ve):
		return StatusInvalidSpec
	default:
		return StatusInvalidRequest
	}
}

// statusError maps a non-OK response status and message back into the
// HTTP API's typed error, so serve.ErrorCode works identically on binary
// transport failures.
func statusError(status byte, msg string) error {
	code, httpStatus := serve.CodeInvalidRequest, http.StatusBadRequest
	switch status {
	case StatusInvalidSpec:
		code, httpStatus = serve.CodeInvalidSpec, http.StatusBadRequest
	case StatusNotFound:
		code, httpStatus = serve.CodeNotFound, http.StatusNotFound
	case StatusAlreadyExists:
		code, httpStatus = serve.CodeAlreadyExists, http.StatusConflict
	case StatusInstanceClosed:
		code, httpStatus = serve.CodeInstanceClosed, http.StatusGone
	case StatusInternal:
		code, httpStatus = "internal", http.StatusInternalServerError
	}
	return &serve.APIError{Code: code, Message: msg, Status: httpStatus}
}
