package distnet

import (
	"sync"
	"testing"
	"time"
)

// recorder is a Transport+Sink test double: it records every Send the
// fault layer forwards and every Dropped the fault layer resolves.
type recorder struct {
	mu      sync.Mutex
	sent    []Frame
	reasons []string
}

func (r *recorder) Start(n int, sink Sink) error { return nil }
func (r *recorder) Close() error                 { return nil }

func (r *recorder) Send(from, to int, f Frame) {
	r.mu.Lock()
	r.sent = append(r.sent, f)
	r.mu.Unlock()
}

func (r *recorder) Deliver(to int, f Frame) {}

func (r *recorder) Dropped(to int, f Frame, reason string) {
	r.mu.Lock()
	r.reasons = append(r.reasons, reason)
	r.mu.Unlock()
}

func (r *recorder) sentRounds() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.sent))
	for i, f := range r.sent {
		out[i] = f.Round
	}
	return out
}

func (r *recorder) waitSent(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.sent)
		r.mu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d forwarded copies, have %d", want, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func startFaults(t *testing.T, cfg Faults, n int) (*FaultTransport, *recorder) {
	t.Helper()
	rec := &recorder{}
	ft := NewFaultTransport(rec, cfg, nil)
	if err := ft.Start(n, rec); err != nil {
		t.Fatal(err)
	}
	return ft, rec
}

// TestConstantLatencyPreservesFIFO: with jitter and reorder zero, every
// copy on a link waits the same fixed delay, so per-link order out equals
// order in.
func TestConstantLatencyPreservesFIFO(t *testing.T) {
	ft, rec := startFaults(t, Faults{Seed: 1, Latency: 2 * time.Millisecond}, 2)
	const copies = 64
	for i := 0; i < copies; i++ {
		ft.Send(0, 1, Frame{Kind: FrameWB, Origin: 0, From: 0, Round: i})
	}
	rec.waitSent(t, copies)
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	for i, round := range rec.sentRounds() {
		if round != i {
			t.Fatalf("copy %d arrived with round %d: FIFO violated under constant latency", i, round)
		}
	}
}

// TestReorderShufflesDelivery: a positive reorder probability must produce
// at least one inversion on a loaded link.
func TestReorderShufflesDelivery(t *testing.T) {
	ft, rec := startFaults(t, Faults{Seed: 2, Latency: time.Millisecond, Reorder: 0.5}, 2)
	const copies = 128
	for i := 0; i < copies; i++ {
		ft.Send(0, 1, Frame{Kind: FrameWB, Origin: 0, From: 0, Round: i})
	}
	rec.waitSent(t, copies)
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	inversions := 0
	rounds := rec.sentRounds()
	for i := 1; i < len(rounds); i++ {
		if rounds[i] < rounds[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("reorder=0.5 produced no inversions across 128 copies")
	}
}

// TestPartitionBlocksExactlyTheCut: a named partition drops copies across
// the cut and nothing else; Heal restores delivery.
func TestPartitionBlocksExactlyTheCut(t *testing.T) {
	ft, rec := startFaults(t, Faults{}, 4)
	ft.Partition("island", []int{0, 1})

	ft.Send(0, 2, Frame{Kind: FrameWB}) // across the cut: dropped
	ft.Send(2, 1, Frame{Kind: FrameWB}) // across the cut: dropped
	ft.Send(0, 1, Frame{Kind: FrameWB}) // same side: delivered
	ft.Send(2, 3, Frame{Kind: FrameWB}) // same side: delivered

	rec.mu.Lock()
	sent, reasons := len(rec.sent), append([]string(nil), rec.reasons...)
	rec.mu.Unlock()
	if sent != 2 {
		t.Fatalf("partition forwarded %d copies, want 2 (same-side only)", sent)
	}
	if len(reasons) != 2 || reasons[0] != "partition" || reasons[1] != "partition" {
		t.Fatalf("drop reasons = %v, want two %q", reasons, "partition")
	}

	ft.Heal("island")
	ft.Send(0, 2, Frame{Kind: FrameWB})
	rec.mu.Lock()
	sent = len(rec.sent)
	rec.mu.Unlock()
	if sent != 3 {
		t.Fatalf("heal did not restore delivery across the cut: %d forwarded", sent)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBurstRunLengthMatchesChain: the per-link Gilbert chain's mean bad-run
// length must track 1/BurstExit.
func TestBurstRunLengthMatchesChain(t *testing.T) {
	const (
		enter = 0.2
		exit  = 0.25
		ticks = 40000
	)
	ft, _ := startFaults(t, Faults{Seed: 3, BurstEnter: enter, BurstExit: exit}, 2)
	defer ft.Close()

	runs, cur := 0, 0
	var total int
	prev := false
	for i := 0; i < ticks; i++ {
		ft.Tick()
		bad := ft.burstBad(0, 1)
		switch {
		case bad && !prev:
			cur = 1
		case bad && prev:
			cur++
		case !bad && prev:
			runs++
			total += cur
		}
		prev = bad
	}
	if runs < 100 {
		t.Fatalf("only %d bursts in %d ticks; chain looks stuck", runs, ticks)
	}
	mean := float64(total) / float64(runs)
	want := 1 / exit
	if mean < want*0.8 || mean > want*1.2 {
		t.Fatalf("mean burst length %.2f, want ≈ %.2f (1/BurstExit)", mean, want)
	}
}

// TestBurstChainIsLazyButDeterministic: asking about a link's state after a
// gap of ticks gives the same answer as asking every tick — the chain is a
// pure function of (seed, link, tick).
func TestBurstChainIsLazyButDeterministic(t *testing.T) {
	mk := func() *FaultTransport {
		ft, _ := startFaults(t, Faults{Seed: 4, BurstEnter: 0.3, BurstExit: 0.3}, 2)
		return ft
	}
	eager, lazy := mk(), mk()
	defer eager.Close()
	defer lazy.Close()
	var eagerStates []bool
	for i := 0; i < 200; i++ {
		eager.Tick()
		lazy.Tick()
		eagerStates = append(eagerStates, eager.burstBad(0, 1))
		if i%37 == 0 { // sample the lazy chain only occasionally
			if got := lazy.burstBad(0, 1); got != eagerStates[i] {
				t.Fatalf("tick %d: lazy chain state %v, eager %v", i, got, eagerStates[i])
			}
		}
	}
}

// TestCrashLosesOnlyDownWindowFrames: a crashed agent discards frames
// delivered while down and skips its own originations, but keeps its state;
// after restart the runtime returns to the fault-free baseline.
func TestCrashLosesOnlyDownWindowFrames(t *testing.T) {
	ext := testExt(t, 20, 2, 21, "random")
	var m Metrics
	rt, err := New(Config{Ext: ext, R: 1, D: 4, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	w := testWeights(ext, 22)

	base, err := rt.Decide(w)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatal("baseline did not converge")
	}

	crashed := base.Winners[0]
	rt.Crash(crashed)
	down, err := rt.Decide(w)
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(down.Winners, crashed) >= 0 {
		t.Fatalf("crashed agent %d still won", crashed)
	}
	if m.Snapshot().CrashDiscards == 0 {
		t.Fatal("no frames were discarded at the crashed agent")
	}

	rt.Restart(crashed)
	back, err := rt.Decide(w)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(back.Winners, base.Winners) {
		t.Fatalf("post-restart winners %v differ from baseline %v: crash leaked state", back.Winners, base.Winners)
	}
	if m.Snapshot().ProtocolViolations != 0 {
		t.Fatalf("crash/restart raised %d protocol violations", m.Snapshot().ProtocolViolations)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSoak512Agents drives 512 concurrent agents through a long sequence
// of decisions under loss, latency, reorder, a mid-run partition with
// heal, and crash/restart churn. Run with -race in CI; the assertions are
// liveness (every Decide returns) and safety (no protocol violations, no
// internal errors).
func TestSoak512Agents(t *testing.T) {
	decisions := 100
	if testing.Short() {
		decisions = 10
	}
	ext := testExt(t, 256, 2, 31, "random")
	if ext.K() != 512 {
		t.Fatalf("soak instance has %d agents, want 512", ext.K())
	}
	var m Metrics
	ft := NewFaultTransport(NewChanTransport(), Faults{
		Seed:    32,
		Loss:    0.05,
		Latency: 100 * time.Microsecond,
		Jitter:  100 * time.Microsecond,
		Reorder: 0.05,
	}, &m)
	rt, err := New(Config{Ext: ext, R: 1, D: 4, Transport: ft, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := testWeights(ext, 33)
	for step := 0; step < decisions; step++ {
		switch {
		case step == decisions/4:
			half := make([]int, 0, 256)
			for v := 0; v < 256; v++ {
				half = append(half, v)
			}
			ft.Partition("soak", half)
		case step == decisions/2:
			ft.Heal("soak")
		case step%7 == 3:
			rt.Crash((step * 13) % ext.K())
		case step%7 == 5:
			rt.Restart(((step - 2) * 13) % ext.K())
		}
		if _, err := rt.Decide(w); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		w[(step*17)%len(w)] = float64(step%11) / 11
	}
	snap := m.Snapshot()
	if snap.ProtocolViolations != 0 {
		t.Fatalf("soak raised %d protocol violations", snap.ProtocolViolations)
	}
	if snap.Decisions != int64(decisions) {
		t.Fatalf("metrics counted %d decisions, want %d", snap.Decisions, decisions)
	}
}
