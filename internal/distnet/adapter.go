package distnet

import (
	"slices"
	"time"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/protocol"
)

// LoopDecider adapts a Runtime to core.Loop's decision plane, so a bandit
// loop can run its strategy decisions through the concurrent agents instead
// of the lock-step protocol.Decider. The winners a loop acts on are the
// schedulable Played set, which equals the believed winner set whenever it
// is independent — always, in fault-free mode, where it is additionally
// bit-identical to protocol.Decider's output.
type LoopDecider struct {
	rt *Runtime
	// faultFree permits epoch-skip caching: without faults the runtime is
	// a deterministic function of the weights, so an unchanged weight
	// vector provably reproduces the cached result. Under faults every
	// boundary re-executes — each decision draws fresh, decision-indexed
	// fault outcomes, which is the behavior being studied.
	faultFree bool

	lastWeights []float64
	lastResult  *protocol.Result
	stats       protocol.DecideStats
	tracer      func(*protocol.DecideTrace)
}

// NewLoopDecider wraps rt. Set faultFree only when the transport injects
// no faults (it enables exact epoch-skip caching).
func NewLoopDecider(rt *Runtime, faultFree bool) *LoopDecider {
	return &LoopDecider{rt: rt, faultFree: faultFree}
}

// Runtime returns the wrapped runtime.
func (ld *LoopDecider) Runtime() *Runtime { return ld.rt }

// DecideEpoch implements core.DecisionPlane. Like protocol.Decider, it
// ignores both change hints: in fault-free mode it epoch-skips exactly when
// the weights compare equal to the last decided vector's, and otherwise the
// concurrent agents re-execute the protocol, which is the behavior being
// studied.
func (ld *LoopDecider) DecideEpoch(weights []float64, prevPlayed []int, _ bool, _ *changeset.Set) (*protocol.Result, error) {
	start := time.Now()
	if ld.faultFree && ld.lastResult != nil && slices.Equal(weights, ld.lastWeights) {
		ld.stats.EpochSkips++
		if ld.tracer != nil {
			ld.tracer(&protocol.DecideTrace{
				StartUnixNS: start.UnixNano(),
				EpochSkip:   true,
				TotalNS:     time.Since(start).Nanoseconds(),
			})
		}
		return ld.lastResult, nil
	}

	res, err := ld.rt.Decide(weights)
	if err != nil {
		return nil, err
	}
	r := ld.rt.r
	miniTimeslots := (2*r + 1) * (2*r + 1)
	miniTimeslots += res.MiniRounds * ((2*r + 1) + (3*r + 2))
	out := &protocol.Result{
		Winners:    res.Played,
		Strategy:   res.Strategy,
		MiniRounds: res.MiniRounds,
		Converged:  res.Converged,
		Stats: protocol.Stats{
			WeightBroadcasts:   res.Frames.WB.Originations,
			LeaderDeclarations: res.Frames.LS.Originations,
			LocalBroadcasts:    res.Frames.LB.Originations,
			MiniTimeslots:      miniTimeslots,
		},
	}
	ld.stats.FullDecides++
	// Every elected leader prepares its ball anew and solves it, so each
	// election is a memo miss in protocol.Decider's terms.
	ld.stats.MemoMisses += int64(res.Leaders)
	ld.stats.BudgetStops += int64(res.BudgetStops)
	ld.stats.MiniRounds += int64(res.MiniRounds)
	ld.stats.WeightBroadcasts += int64(res.Frames.WB.Originations)
	ld.stats.LeaderDeclarations += int64(res.Frames.LS.Originations)
	ld.stats.LocalBroadcasts += int64(res.Frames.LB.Originations)
	ld.stats.MiniTimeslots += int64(miniTimeslots)

	if ld.faultFree {
		ld.lastWeights = append(ld.lastWeights[:0], weights...)
		ld.lastResult = out
	}
	if ld.tracer != nil {
		ld.tracer(&protocol.DecideTrace{
			StartUnixNS: start.UnixNano(),
			MiniRounds:  res.MiniRounds,
			TotalNS:     time.Since(start).Nanoseconds(),
		})
	}
	return out, nil
}

// Stats implements core.DecisionPlane.
func (ld *LoopDecider) Stats() protocol.DecideStats { return ld.stats }

// SetTracer implements core.DecisionPlane.
func (ld *LoopDecider) SetTracer(fn func(*protocol.DecideTrace)) { ld.tracer = fn }
