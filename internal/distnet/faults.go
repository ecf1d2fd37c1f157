package distnet

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Faults configures the composable fault-injection layer. The zero value
// injects nothing. Every stochastic choice is a pure function of the frame
// copy's identity (or, for bursts, of the link and the logical tick) under
// Seed, so a faulted run is exactly reproducible regardless of goroutine
// scheduling — determinism comes from keying, not from ordering.
type Faults struct {
	// Seed keys every fault draw.
	Seed int64
	// Loss is the independent per-copy loss probability: a copy is lost
	// iff its identity hash under Seed falls below Loss.
	Loss float64
	// BurstEnter and BurstExit drive a per-directed-link Gilbert chain
	// advanced once per logical Tick (the runtime ticks at every phase
	// barrier): a good link turns bad with probability BurstEnter, a bad
	// link recovers with probability BurstExit, and a bad link drops every
	// copy it carries that tick. BurstEnter 0 disables the chain.
	BurstEnter float64
	// BurstExit is the per-tick recovery probability of a bad link; its
	// reciprocal is the mean burst length in ticks.
	BurstExit float64
	// Latency is the fixed one-way delay applied to every copy.
	Latency time.Duration
	// Jitter adds an identity-keyed uniform [0,Jitter) delay per copy.
	Jitter time.Duration
	// Reorder is the probability that a copy is additionally held back by
	// Latency+Jitter, pushing it behind later traffic on its link. With
	// Reorder and Jitter both zero the delay is constant, so per-link FIFO
	// order is preserved exactly.
	Reorder float64
}

// Active reports whether any fault is configured.
func (f Faults) Active() bool {
	return f.Loss > 0 || f.BurstEnter > 0 || f.Latency > 0 || f.Jitter > 0 || f.Reorder > 0
}

// salts separating the fault layer's independent draw families. Loss draws
// use the unsalted seed, which the tests' sequential oracle draws its loss
// from too, copy for copy.
const (
	saltJitter  = 0x2002
	saltReorder = 0x3003
	saltBurst   = 0x4004
)

// FaultTransport wraps a reliable Transport with the fault layer: loss and
// burst drops, fixed latency, identity-keyed jitter and reordering, and
// named partitions with heal. It implements Transport itself, so layers
// compose; the runtime's crash/restart blackout sits above it.
type FaultTransport struct {
	inner Transport
	cfg   Faults
	n     int
	sink  Sink
	m     *Metrics

	tick atomic.Int64

	burstMu sync.Mutex
	burst   map[int64]*burstState

	partMu sync.RWMutex
	parts  map[string][]bool

	dq *delayQueue
}

type burstState struct {
	tick int64
	bad  bool
}

// NewFaultTransport wraps inner with the fault configuration. Metrics may
// be nil.
func NewFaultTransport(inner Transport, cfg Faults, m *Metrics) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		cfg:   cfg,
		m:     m,
		burst: make(map[int64]*burstState),
		parts: make(map[string][]bool),
	}
}

// Start implements Transport.
func (t *FaultTransport) Start(n int, sink Sink) error {
	t.n, t.sink = n, sink
	if t.cfg.Latency > 0 || t.cfg.Jitter > 0 || t.cfg.Reorder > 0 {
		t.dq = newDelayQueue(t.inner)
	}
	return t.inner.Start(n, sink)
}

// Tick advances the logical burst clock. The runtime calls it at every
// phase barrier, making a burst's correlation timescale one protocol phase.
func (t *FaultTransport) Tick() { t.tick.Add(1) }

// Partition installs (or replaces) a named cut: copies whose endpoints
// fall on opposite sides of group are dropped until Heal(name). group
// holds the agent ids of one side.
func (t *FaultTransport) Partition(name string, group []int) {
	side := make([]bool, t.n)
	for _, v := range group {
		if v >= 0 && v < t.n {
			side[v] = true
		}
	}
	t.partMu.Lock()
	t.parts[name] = side
	t.partMu.Unlock()
}

// Heal removes a named cut; delivery across it resumes immediately.
func (t *FaultTransport) Heal(name string) {
	t.partMu.Lock()
	delete(t.parts, name)
	t.partMu.Unlock()
}

func (t *FaultTransport) partitioned(from, to int) bool {
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	for _, side := range t.parts {
		if side[from] != side[to] {
			return true
		}
	}
	return false
}

// burstBad lazily advances the link's Gilbert chain to the current tick
// and reports its state. The chain's trajectory is a pure function of
// (seed, link, tick), so the answer is independent of when it is asked.
func (t *FaultTransport) burstBad(from, to int) bool {
	cur := t.tick.Load()
	link := int64(from)*int64(t.n) + int64(to)
	t.burstMu.Lock()
	st := t.burst[link]
	if st == nil {
		st = &burstState{}
		t.burst[link] = st
	}
	for st.tick < cur {
		st.tick++
		u := unitHash(t.cfg.Seed+saltBurst, int(st.tick), 0, 0, int(link), from, to)
		if st.bad {
			if u < t.cfg.BurstExit {
				st.bad = false
			}
		} else if u < t.cfg.BurstEnter {
			st.bad = true
		}
	}
	bad := st.bad
	t.burstMu.Unlock()
	return bad
}

// Send implements Transport: decide the copy's fate, then forward, delay,
// or drop it.
func (t *FaultTransport) Send(from, to int, f Frame) {
	if t.partitioned(from, to) {
		t.m.copyDropped(f.Kind)
		t.sink.Dropped(to, f, "partition")
		return
	}
	if t.cfg.BurstEnter > 0 && t.burstBad(from, to) {
		t.m.copyDropped(f.Kind)
		t.sink.Dropped(to, f, "burst")
		return
	}
	if t.cfg.Loss > 0 && unitHash(t.cfg.Seed, f.Decision, f.Kind, f.Round, f.Origin, from, to) < t.cfg.Loss {
		t.m.copyDropped(f.Kind)
		t.sink.Dropped(to, f, "loss")
		return
	}
	if t.dq == nil {
		t.inner.Send(from, to, f)
		return
	}
	d := t.cfg.Latency
	if t.cfg.Jitter > 0 {
		u := unitHash(t.cfg.Seed+saltJitter, f.Decision, f.Kind, f.Round, f.Origin, from, to)
		d += time.Duration(u * float64(t.cfg.Jitter))
	}
	if t.cfg.Reorder > 0 {
		u := unitHash(t.cfg.Seed+saltReorder, f.Decision, f.Kind, f.Round, f.Origin, from, to)
		if u < t.cfg.Reorder {
			d += t.cfg.Latency + t.cfg.Jitter
		}
	}
	if d <= 0 {
		t.inner.Send(from, to, f)
		return
	}
	t.m.copyDelayed(f.Kind)
	t.dq.hold(from, to, f, d)
}

// Close implements Transport.
func (t *FaultTransport) Close() error {
	if t.dq != nil {
		t.dq.close()
	}
	return t.inner.Close()
}

// delayQueue holds delayed copies and forwards each to the inner transport
// when due. Equal deadlines break ties by submission order, so a constant
// delay preserves per-link FIFO exactly.
type delayQueue struct {
	inner Transport

	mu     sync.Mutex
	h      delayHeap
	seq    int64
	closed bool
	wake   chan struct{}
	done   chan struct{}
}

type delayedCopy struct {
	due      time.Time
	seq      int64
	from, to int
	f        Frame
}

type delayHeap []delayedCopy

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(delayedCopy)) }
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func newDelayQueue(inner Transport) *delayQueue {
	q := &delayQueue{
		inner: inner,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go q.loop()
	return q
}

func (q *delayQueue) hold(from, to int, f Frame, d time.Duration) {
	q.mu.Lock()
	q.seq++
	heap.Push(&q.h, delayedCopy{due: time.Now().Add(d), seq: q.seq, from: from, to: to, f: f})
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *delayQueue) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		q.mu.Lock()
		if q.closed {
			// Flush whatever is pending so every held copy still resolves
			// (the runtime quiesces before closing, so this is normally
			// empty), then exit.
			var rest []delayedCopy
			for len(q.h) > 0 {
				rest = append(rest, heap.Pop(&q.h).(delayedCopy))
			}
			q.mu.Unlock()
			for _, it := range rest {
				q.inner.Send(it.from, it.to, it.f)
			}
			close(q.done)
			return
		}
		var ready []delayedCopy
		now := time.Now()
		for len(q.h) > 0 && !q.h[0].due.After(now) {
			ready = append(ready, heap.Pop(&q.h).(delayedCopy))
		}
		var wait time.Duration = -1
		if len(q.h) > 0 {
			wait = q.h[0].due.Sub(now)
		}
		q.mu.Unlock()
		for _, it := range ready {
			q.inner.Send(it.from, it.to, it.f)
		}
		if len(ready) > 0 {
			continue
		}
		if wait < 0 {
			<-q.wake
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-q.wake:
		case <-timer.C:
		}
	}
}

func (q *delayQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	<-q.done
}
