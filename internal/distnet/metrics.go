package distnet

import "sync/atomic"

// Metrics is the cumulative telemetry of one (or several) distnet runtimes:
// atomic counters, read through Snapshot. Frame broadcasts are counted once
// per local broadcast (matching FrameStats accounting); copies are counted
// per link transmission, which is what the fault layer actually drops or
// delays.
type Metrics struct {
	framesSent    [3]atomic.Int64 // local broadcasts by kind
	copiesDropped [3]atomic.Int64 // per-link copies killed by the fault layer
	copiesDelayed [3]atomic.Int64 // per-link copies held by the delay queue

	decisions           atomic.Int64
	miniRounds          atomic.Int64
	convergenceFailures atomic.Int64
	nonIndependent      atomic.Int64
	crashDiscards       atomic.Int64 // frames discarded by a crashed agent
	protocolViolations  atomic.Int64 // out-of-scope or stale frames
}

func (m *Metrics) frameSent(k FrameKind) {
	if m != nil {
		m.framesSent[k].Add(1)
	}
}

func (m *Metrics) copyDropped(k FrameKind) {
	if m != nil {
		m.copiesDropped[k].Add(1)
	}
}

func (m *Metrics) copyDelayed(k FrameKind) {
	if m != nil {
		m.copiesDelayed[k].Add(1)
	}
}

func (m *Metrics) crashDiscard() {
	if m != nil {
		m.crashDiscards.Add(1)
	}
}

func (m *Metrics) violation() {
	if m != nil {
		m.protocolViolations.Add(1)
	}
}

// Snapshot is a point-in-time copy of the counters, used by bench reports.
type Snapshot struct {
	FramesSent    map[string]int64 `json:"frames_sent"`
	CopiesDropped map[string]int64 `json:"copies_dropped"`
	CopiesDelayed map[string]int64 `json:"copies_delayed"`

	Decisions           int64 `json:"decisions"`
	MiniRounds          int64 `json:"mini_rounds"`
	ConvergenceFailures int64 `json:"convergence_failures"`
	NonIndependent      int64 `json:"non_independent"`
	CrashDiscards       int64 `json:"crash_discards"`
	ProtocolViolations  int64 `json:"protocol_violations"`
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		FramesSent:          make(map[string]int64, 3),
		CopiesDropped:       make(map[string]int64, 3),
		CopiesDelayed:       make(map[string]int64, 3),
		Decisions:           m.decisions.Load(),
		MiniRounds:          m.miniRounds.Load(),
		ConvergenceFailures: m.convergenceFailures.Load(),
		NonIndependent:      m.nonIndependent.Load(),
		CrashDiscards:       m.crashDiscards.Load(),
		ProtocolViolations:  m.protocolViolations.Load(),
	}
	for k := FrameWB; k <= FrameLB; k++ {
		s.FramesSent[k.String()] = m.framesSent[k].Load()
		s.CopiesDropped[k.String()] = m.copiesDropped[k].Load()
		s.CopiesDelayed[k.String()] = m.copiesDelayed[k].Load()
	}
	return s
}
