package distnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
)

// TCPTransport carries frames over real TCP loopback connections, using
// internal/wire's framing discipline: every frame is a 4-byte little-endian
// length prefix followed by fixed-width payload scalars, with a hard frame
// cap enforced before any allocation. Agents are sharded onto a small
// number of persistent connections (agent id mod shards) meeting at an
// in-process hub that routes each frame to its destination shard — a star
// mesh, so per-link FIFO order survives the trip: a link's copies traverse
// the same sender-shard connection, hub route, and receiver-shard
// connection in order.
//
// TCP is reliable, so the transport never loses frames; unreliability is
// injected above it by a FaultTransport, keeping fault determinism intact
// while every protocol byte still crosses a real socket.
type TCPTransport struct {
	shards int
	n      int
	sink   Sink

	ln     net.Listener
	client []*tcpConn // dialed side, one per shard
	hub    []*tcpConn // accepted side, one per shard
	wg     sync.WaitGroup
	closed atomic.Bool

	bufs sync.Pool
}

// tcpFrameOverhead is the fixed payload size before the winner/loser ids:
// dst u32, decision u32, kind u8, origin u32, from u32, round u32,
// weight f64, winner count u16, loser count u16.
const tcpFrameOverhead = 4 + 4 + 1 + 4 + 4 + 4 + 8 + 2 + 2

// tcpMaxFrame caps one frame (prefix excluded); an oversized length field
// is rejected before allocation, as in internal/wire.
const tcpMaxFrame = 1 << 20

// NewTCPTransport builds a loopback TCP transport with the given number of
// connection shards (minimum 1).
func NewTCPTransport(shards int) *TCPTransport {
	if shards < 1 {
		shards = 1
	}
	return &TCPTransport{shards: shards}
}

type tcpConn struct {
	c  net.Conn
	r  *bufio.Reader
	mu sync.Mutex
	w  *bufio.Writer
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// writeFrame writes one length-prefixed frame atomically w.r.t. other
// writers on the connection.
func (tc *tcpConn) writeFrame(frame []byte) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(frame)))
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if _, err := tc.w.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := tc.w.Write(frame); err != nil {
		return err
	}
	return tc.w.Flush()
}

// readFrame reads one length-prefixed frame into buf (grown as needed).
func (tc *tcpConn) readFrame(buf []byte) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(tc.r, prefix[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(prefix[:])
	if size < tcpFrameOverhead || size > tcpMaxFrame {
		return nil, fmt.Errorf("distnet: tcp frame length %d out of bounds", size)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(tc.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Start implements Transport: it binds the loopback listener, dials the
// shard connections, and launches the hub and delivery readers.
func (t *TCPTransport) Start(n int, sink Sink) error {
	t.n, t.sink = n, sink
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("distnet: tcp listen: %w", err)
	}
	t.ln = ln
	t.client = make([]*tcpConn, t.shards)
	t.hub = make([]*tcpConn, t.shards)

	accepted := make(chan error, 1)
	go func() {
		for i := 0; i < t.shards; i++ {
			c, err := ln.Accept()
			if err != nil {
				accepted <- err
				return
			}
			var id [4]byte
			if _, err := io.ReadFull(c, id[:]); err != nil {
				accepted <- err
				return
			}
			t.hub[binary.LittleEndian.Uint32(id[:])] = newTCPConn(c)
		}
		accepted <- nil
	}()
	for s := 0; s < t.shards; s++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return fmt.Errorf("distnet: tcp dial shard %d: %w", s, err)
		}
		var id [4]byte
		binary.LittleEndian.PutUint32(id[:], uint32(s))
		if _, err := c.Write(id[:]); err != nil {
			return fmt.Errorf("distnet: tcp handshake shard %d: %w", s, err)
		}
		t.client[s] = newTCPConn(c)
	}
	if err := <-accepted; err != nil {
		return fmt.Errorf("distnet: tcp accept: %w", err)
	}

	for s := 0; s < t.shards; s++ {
		t.wg.Add(2)
		go t.hubReader(t.hub[s])
		go t.clientReader(t.client[s])
	}
	return nil
}

// hubReader routes frames arriving from one sender shard to their
// destination shard's connection, forwarding the encoded bytes untouched.
func (t *TCPTransport) hubReader(tc *tcpConn) {
	defer t.wg.Done()
	var buf []byte
	for {
		frame, err := tc.readFrame(buf)
		if err != nil {
			t.readerExit(err)
			return
		}
		buf = frame
		dst := int(binary.LittleEndian.Uint32(frame[:4]))
		if dst < 0 || dst >= t.n {
			t.readerExit(fmt.Errorf("distnet: tcp route to unknown agent %d", dst))
			return
		}
		if err := t.hub[dst%t.shards].writeFrame(frame); err != nil {
			// The copy is gone; resolve its credit so barriers cannot hang.
			to, f := decodeFrame(frame)
			t.sink.Dropped(to, f, "tcp")
			if t.closed.Load() {
				return
			}
		}
	}
}

// clientReader delivers frames arriving on one shard connection.
func (t *TCPTransport) clientReader(tc *tcpConn) {
	defer t.wg.Done()
	var buf []byte
	for {
		frame, err := tc.readFrame(buf)
		if err != nil {
			t.readerExit(err)
			return
		}
		buf = frame
		to, f := decodeFrame(frame)
		t.sink.Deliver(to, f)
	}
}

func (t *TCPTransport) readerExit(err error) {
	if !t.closed.Load() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		// A torn loopback connection outside Close is unexpected; there is
		// no recovery that preserves the credit accounting, so surface it
		// loudly in test logs via panic-free best effort: mark closed so
		// peers wind down.
		t.closed.Store(true)
	}
}

// Send implements Transport: encode the copy and write it on the sender's
// shard connection; the hub forwards it to the destination shard.
func (t *TCPTransport) Send(from, to int, f Frame) {
	buf, _ := t.bufs.Get().([]byte)
	frame := encodeFrame(buf, to, f)
	err := t.client[from%t.shards].writeFrame(frame)
	t.bufs.Put(frame[:0]) //nolint:staticcheck // slice reuse, size-bounded
	if err != nil {
		t.sink.Dropped(to, f, "tcp")
	}
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.closed.Store(true)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, tc := range t.client {
		if tc != nil {
			tc.c.Close()
		}
	}
	for _, tc := range t.hub {
		if tc != nil {
			tc.c.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// encodeFrame appends the wire form of (dst, f) to buf[:0].
func encodeFrame(buf []byte, dst int, f Frame) []byte {
	need := tcpFrameOverhead + 4*len(f.Winners) + 4*len(f.Losers)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	var u32 [4]byte
	put32 := func(v int) {
		binary.LittleEndian.PutUint32(u32[:], uint32(v))
		buf = append(buf, u32[:]...)
	}
	put32(dst)
	put32(f.Decision)
	buf = append(buf, byte(f.Kind))
	put32(f.Origin)
	put32(f.From)
	put32(f.Round)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], math.Float64bits(f.Weight))
	buf = append(buf, u64[:]...)
	buf = append(buf, byte(len(f.Winners)), byte(len(f.Winners)>>8))
	buf = append(buf, byte(len(f.Losers)), byte(len(f.Losers)>>8))
	for _, v := range f.Winners {
		put32(v)
	}
	for _, v := range f.Losers {
		put32(v)
	}
	return buf
}

// decodeFrame parses an encoded frame. The payload slices are freshly
// allocated, preserving the read-only contract for receivers.
func decodeFrame(frame []byte) (dst int, f Frame) {
	get32 := func(off int) int { return int(int32(binary.LittleEndian.Uint32(frame[off:]))) }
	dst = get32(0)
	f.Decision = get32(4)
	f.Kind = FrameKind(frame[8])
	f.Origin = get32(9)
	f.From = get32(13)
	f.Round = get32(17)
	f.Weight = math.Float64frombits(binary.LittleEndian.Uint64(frame[21:]))
	nw := int(binary.LittleEndian.Uint16(frame[29:]))
	nl := int(binary.LittleEndian.Uint16(frame[31:]))
	off := tcpFrameOverhead
	if nw > 0 {
		f.Winners = make([]int, nw)
		for i := range f.Winners {
			f.Winners[i] = get32(off)
			off += 4
		}
	}
	if nl > 0 {
		f.Losers = make([]int, nl)
		for i := range f.Losers {
			f.Losers[i] = get32(off)
			off += 4
		}
	}
	return dst, f
}
