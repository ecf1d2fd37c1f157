package distnet

import (
	"fmt"
)

// Sink receives the terminal fate of every frame copy a Transport (or a
// fault layer wrapped around one) accepted via Send. Exactly one Sink
// method must eventually fire per accepted copy — the runtime's
// quiescence accounting (one credit per copy) depends on it.
type Sink interface {
	// Deliver hands a frame copy to the destination agent. May be called
	// from any goroutine.
	Deliver(to int, f Frame)
	// Dropped reports a copy that will never arrive, with a reason label
	// ("loss", "burst", "partition").
	Dropped(to int, f Frame, reason string)
}

// Transport moves frame copies between agents. Implementations must be
// safe for concurrent Send from many goroutines and must resolve every
// accepted copy through the Sink exactly once. Transports are reliable;
// unreliability is injected by wrapping one in a FaultTransport.
type Transport interface {
	// Start binds the transport to n agent endpoints and the delivery sink.
	Start(n int, sink Sink) error
	// Send submits one frame copy on the from->to link.
	Send(from, to int, f Frame)
	// Close tears the transport down; no Send may follow.
	Close() error
}

// ChanTransport is the in-process transport: Send hands the copy to the
// sink synchronously on the caller's goroutine. It is the default and the
// fastest option — the mailbox on the receiving side provides the
// asynchrony, so agents never block each other.
type ChanTransport struct {
	n    int
	sink Sink
}

// NewChanTransport builds the in-process transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Start implements Transport.
func (t *ChanTransport) Start(n int, sink Sink) error {
	if sink == nil {
		return fmt.Errorf("distnet: nil sink")
	}
	t.n, t.sink = n, sink
	return nil
}

// Send implements Transport.
func (t *ChanTransport) Send(from, to int, f Frame) {
	t.sink.Deliver(to, f)
}

// Close implements Transport.
func (t *ChanTransport) Close() error { return nil }
