package core

import (
	"errors"
	"fmt"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/channel"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
)

// Loop is the shared Algorithm 2 slot kernel: the single implementation of
// the paper's per-slot procedure (periodic distributed strategy decision,
// transmit, observe, estimator update) that both the offline simulator
// (Scheme) and the online serving runtime (internal/serve) instantiate.
//
// The kernel owns two reward-source modes, mirroring the two ways a slot's
// observations can arrive:
//
//   - StepSampled draws each winner's reward from the configured
//     channel.Sampler (self-simulation; ticks Dynamic samplers), and
//   - StepExternal applies an externally supplied observation batch
//     (the serving runtime's external-environment mode).
//
// Strategy decisions are lazy: EnsureDecided runs the distributed decision
// the first time a slot at an update boundary (slot ≡ 0 mod UpdateEvery)
// needs one, so an assignment query followed by a step in the same slot
// decides exactly once. The kernel uses the policies' zero-allocation
// WriteIndices path when available and falls back to copying Indices()
// otherwise, so policies without policy.IndexWriter behave identically in
// every consumer.
//
// Decisions run on a persistent protocol.Decider owned by the loop: the
// incremental decision plane that reuses scratch across boundaries,
// memoizes local MWIS per leader, and short-circuits whole boundaries when
// the weight vector did not move. The kernel still passes the policies'
// change reports through DecideEpoch (WriteIndices says whether any index
// changed since the last boundary and which ones), but neither decision
// plane reads them: each finds an unchanged epoch, and the leaders whose
// candidate weights did not move, by comparing the weights itself, so no
// report can make a decision stale. All of it is exact — trajectories are
// bit-identical to deciding from scratch every boundary — and the decider's
// cumulative accounting (full decides, epoch skips, leader and sensitivity
// skips, struct hits/misses, communication totals) is exposed through
// DecideStats.
//
// Per-slot output streams through SlotObserver instead of materialized
// result slices: the kernel reuses its internal buffers and one SlotView,
// so a steady-state (non-decision) slot performs zero heap allocations.
// Loop is not safe for concurrent use; each consumer confines it to one
// goroutine (the simulator runs it inline, the serving runtime inside an
// actor).
type Loop struct {
	ext *extgraph.Extended
	rt  *protocol.Runtime
	dec DecisionPlane // persistent incremental decide state
	pol policy.Policy
	wr  policy.IndexWriter // non-nil fast path (no per-decision alloc)
	ch  channel.Sampler    // nil in external-observations-only loops
	dyn channel.Dynamic    // non-nil when ch advances with time
	y   int

	slot        int
	decidedSlot int // slot the current strategy was decided at; -1 initially
	decisions   int64
	curWinners  []int
	curStrategy extgraph.Strategy
	curEstimate float64
	curDecision *protocol.Result
	lastPlayed  []int
	indices     []float64      // reused per-decision weight buffer
	chSet       *changeset.Set // reused per-boundary changed-index set
	rewards     []float64      // reused per-slot reward buffer
	view        SlotView       // reused per-slot observer report
}

// DecisionPlane is the loop's strategy-decision seam: the epoch-aware
// decide surface that protocol.Decider implements natively and that
// distnet.LoopDecider adapts, letting the same slot kernel run its
// decisions lock-step in process or through concurrent per-vertex agents
// over a transport. Implementations keep their own incremental state.
type DecisionPlane interface {
	// DecideEpoch runs (or serves from cache) one strategy decision.
	// weightsUnchanged and ch carry the kernel's change reports: whether
	// any weight changed since the previous boundary, and which ones. Both
	// planes ignore them and compare the weights themselves, so neither
	// plane's exactness rests on the reports; the parameters stay because
	// the benchmark module, stackbench, compiles against this signature.
	DecideEpoch(weights []float64, prevPlayed []int, weightsUnchanged bool, ch *changeset.Set) (*protocol.Result, error)
	// Stats returns the plane's cumulative decision accounting.
	Stats() protocol.DecideStats
	// SetTracer attaches (nil detaches) a per-decision trace observer.
	SetTracer(fn func(*protocol.DecideTrace))
}

// LoopConfig parameterizes a Loop from preconstructed artifacts. Callers
// that start from a topology and channel model use core.New (which builds
// the extended graph and protocol runtime first); callers holding cached
// artifacts (the serving runtime) build the Loop directly.
type LoopConfig struct {
	// Ext is the extended conflict graph H. Required.
	Ext *extgraph.Extended
	// Runtime is the distributed strategy-decision protocol. Required.
	Runtime *protocol.Runtime
	// Decider overrides the decision plane; nil uses Runtime.NewDecider()
	// (the lock-step incremental decider).
	Decider DecisionPlane
	// Policy is the learning policy. Required.
	Policy policy.Policy
	// Sampler is the reward source for StepSampled; nil builds an
	// external-observations-only loop (StepSampled then errors).
	Sampler channel.Sampler
	// UpdateEvery is the update period y in slots (default 1).
	UpdateEvery int
}

// NewLoop builds the kernel from preconstructed artifacts.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	if cfg.Ext == nil {
		return nil, errors.New("core: loop needs an extended graph")
	}
	if cfg.Runtime == nil {
		return nil, errors.New("core: loop needs a protocol runtime")
	}
	if cfg.Policy == nil {
		return nil, errors.New("core: loop needs a policy")
	}
	if cfg.UpdateEvery == 0 {
		cfg.UpdateEvery = 1
	}
	if cfg.UpdateEvery < 1 {
		return nil, fmt.Errorf("core: UpdateEvery must be >= 1, got %d", cfg.UpdateEvery)
	}
	dec := cfg.Decider
	if dec == nil {
		dec = cfg.Runtime.NewDecider()
	}
	l := &Loop{
		ext:         cfg.Ext,
		rt:          cfg.Runtime,
		dec:         dec,
		pol:         cfg.Policy,
		ch:          cfg.Sampler,
		y:           cfg.UpdateEvery,
		decidedSlot: -1,
		indices:     make([]float64, cfg.Ext.K()),
		chSet:       changeset.New(cfg.Ext.K()),
		// A strategy plays at most one virtual vertex per node.
		rewards:    make([]float64, 0, cfg.Ext.N),
		lastPlayed: make([]int, 0, cfg.Ext.N),
	}
	if wr, ok := cfg.Policy.(policy.IndexWriter); ok {
		l.wr = wr
	}
	if dyn, ok := cfg.Sampler.(channel.Dynamic); ok {
		l.dyn = dyn
	}
	return l, nil
}

// Ext exposes the extended conflict graph (read-only use).
func (l *Loop) Ext() *extgraph.Extended { return l.ext }

// Policy exposes the learning policy (read-only use).
func (l *Loop) Policy() policy.Policy { return l.pol }

// Sampler exposes the self-sampling reward source (nil in external mode).
func (l *Loop) Sampler() channel.Sampler { return l.ch }

// UpdateEvery returns the update period y.
func (l *Loop) UpdateEvery() int { return l.y }

// Slot returns the number of completed time slots.
func (l *Loop) Slot() int { return l.slot }

// DecidedSlot returns the slot the current strategy was decided at, or -1
// before the first decision.
func (l *Loop) DecidedSlot() int { return l.decidedSlot }

// Decisions returns the number of strategy decisions run so far (update
// boundaries served, whether by a full protocol run or an epoch skip).
func (l *Loop) Decisions() int64 { return l.decisions }

// DecideStats returns the decision plane's cumulative accounting: how the
// boundaries counted by Decisions were served (full decides vs weight-epoch
// skips), the per-leader skip taxonomy (leader skips, sensitivity skips,
// structure hits, misses), and the protocol communication totals of the
// full decides.
func (l *Loop) DecideStats() protocol.DecideStats { return l.dec.Stats() }

// SetDecideObserver attaches (or with nil detaches) a decision-path
// observer: fn runs synchronously after every decision with the boundary's
// slot and the decider's scratch *protocol.DecideTrace (copy out anything
// retained). The serving runtime uses this to publish trace spans and
// phase histograms; with no observer attached the decide path performs no
// timing work at all.
func (l *Loop) SetDecideObserver(fn func(slot int, tr *protocol.DecideTrace)) {
	if fn == nil {
		l.dec.SetTracer(nil)
		return
	}
	l.dec.SetTracer(func(tr *protocol.DecideTrace) { fn(l.slot, tr) })
}

// Winners returns the current strategy's virtual-vertex ids. The slice is
// shared with the kernel but never mutated after a decision publishes it
// (each decision and each restore installs fresh slices), so callers may
// retain it across slots but must not modify it.
func (l *Loop) Winners() []int { return l.curWinners }

// Strategy returns the current per-node channel assignment under the same
// sharing contract as Winners.
func (l *Loop) Strategy() extgraph.Strategy { return l.curStrategy }

// EstimatedWeight returns the index-weight sum of the current strategy at
// its decision time (the W_x of §V-C, normalized units).
func (l *Loop) EstimatedWeight() float64 { return l.curEstimate }

// Decision returns the protocol result of the most recent strategy decision
// (nil before the first decision and after a state restore).
func (l *Loop) Decision() *protocol.Result { return l.curDecision }

// EnsureDecided runs the distributed strategy decision if the current slot
// is an update boundary that has not decided yet, reporting whether a
// decision ran. Calling it again in the same slot is a no-op, which lets an
// assignment query and a step share one decision.
//
// The decision goes through the loop's decision plane: when the weights and
// the previous strategy equal the last boundary's, the plane serves the
// cached previous Result instead of rerunning the protocol. Boundaries served either way count as
// decisions; DecideStats splits them into full decides and epoch skips.
func (l *Loop) EnsureDecided() (bool, error) {
	if l.slot%l.y != 0 || l.decidedSlot == l.slot {
		return false, nil
	}
	changed := true
	l.chSet.Reset(len(l.indices))
	if l.wr != nil {
		changed = l.wr.WriteIndices(l.indices, l.chSet)
	} else {
		fresh := l.pol.Indices()
		changed = false
		for i, x := range fresh {
			if x != l.indices[i] {
				l.chSet.Add(i)
				changed = true
			}
		}
		copy(l.indices, fresh)
	}
	dec, err := l.dec.DecideEpoch(l.indices, l.lastPlayed, !changed, l.chSet)
	if err != nil {
		return false, fmt.Errorf("core: strategy decision at slot %d: %w", l.slot, err)
	}
	l.curDecision = dec
	l.curWinners = dec.Winners
	l.curStrategy = dec.Strategy
	l.curEstimate = 0
	for _, v := range dec.Winners {
		l.curEstimate += l.indices[v]
	}
	l.lastPlayed = append(l.lastPlayed[:0], dec.Winners...)
	l.decidedSlot = l.slot
	l.decisions++
	return true, nil
}

// StepSampled advances the loop by one self-simulation slot: decide when
// due, draw every winner's reward from the sampler, update the estimator,
// tick dynamic channels. It returns the slot's realized total throughput
// Σ ξ (normalized units) and, when obs is non-nil, streams the slot to it.
// The SlotView passed to obs aliases kernel buffers — see SlotView.
func (l *Loop) StepSampled(obs SlotObserver) (float64, error) {
	if l.ch == nil {
		return 0, errors.New("core: loop has no sampler (external observations only)")
	}
	if _, err := l.EnsureDecided(); err != nil {
		return 0, err
	}
	// Data transmission: every winner observes one draw of its channel.
	l.rewards = l.rewards[:0]
	total := 0.0
	for _, v := range l.curWinners {
		x := l.ch.Sample(v)
		l.rewards = append(l.rewards, x)
		total += x
	}
	if err := l.pol.Update(l.curWinners, l.rewards); err != nil {
		return 0, fmt.Errorf("core: policy update at slot %d: %w", l.slot, err)
	}
	// Restless channels advance with time, not with plays.
	if l.dyn != nil {
		l.dyn.Tick()
	}
	if obs != nil {
		l.emit(obs, l.curWinners, l.rewards, total)
	}
	l.slot++
	return total, nil
}

// StepExternal advances the loop by one externally-observed slot: decide
// when due, then feed the caller's observation batch (played virtual-vertex
// ids and their rewards) to the estimator. The sampler, if any, is neither
// consulted nor ticked — the external environment owns the channel process.
// When obs is non-nil the slot streams to it like a sampled slot; the
// view's Played is the caller's batch, which in off-policy replay may
// differ from the kernel's own Winners.
func (l *Loop) StepExternal(played []int, rewards []float64, obs SlotObserver) error {
	if _, err := l.EnsureDecided(); err != nil {
		return err
	}
	if err := l.pol.Update(played, rewards); err != nil {
		return fmt.Errorf("core: policy update at slot %d: %w", l.slot, err)
	}
	if obs != nil {
		total := 0.0
		for _, x := range rewards {
			total += x
		}
		l.emit(obs, played, rewards, total)
	}
	l.slot++
	return nil
}

// emit fills the reused view and hands it to the observer.
func (l *Loop) emit(obs SlotObserver, played []int, rewards []float64, total float64) {
	decided := l.decidedSlot == l.slot
	l.view = SlotView{
		Slot:            l.slot,
		Decided:         decided,
		Strategy:        l.curStrategy,
		Winners:         l.curWinners,
		Played:          played,
		Rewards:         rewards,
		Observed:        total,
		EstimatedWeight: l.curEstimate,
	}
	if decided {
		l.view.Decision = l.curDecision
	}
	obs.OnSlot(&l.view)
}

// LoopState is the restorable loop position: everything the kernel needs to
// resume a trajectory besides the learner statistics (which the policy's
// own Snapshotter carries).
type LoopState struct {
	// Slot is the number of completed slots.
	Slot int
	// DecidedSlot is the slot the current strategy was decided at (-1
	// before the first decision).
	DecidedSlot int
	// LastPlayed are the vertex ids played in the previous round (the
	// weight-broadcast set of the next decision).
	LastPlayed []int
	// Winners and Strategy are the current decision's output.
	Winners  []int
	Strategy extgraph.Strategy
	// EstimatedWeight is the current strategy's index-weight sum at its
	// decision time.
	EstimatedWeight float64
}

// ExportState deep-copies the loop position for snapshotting.
func (l *Loop) ExportState() LoopState {
	return LoopState{
		Slot:            l.slot,
		DecidedSlot:     l.decidedSlot,
		LastPlayed:      append([]int(nil), l.lastPlayed...),
		Winners:         append([]int(nil), l.curWinners...),
		Strategy:        append(extgraph.Strategy(nil), l.curStrategy...),
		EstimatedWeight: l.curEstimate,
	}
}

// ValidateState checks that a snapshot is restorable into this loop
// without changing any state, so callers can sequence it before other
// restore work (e.g. the learner's own restore) and keep failures atomic.
func (l *Loop) ValidateState(s LoopState) error {
	if s.Slot < 0 {
		return fmt.Errorf("core: snapshot slot must be non-negative, got %d", s.Slot)
	}
	if s.DecidedSlot > s.Slot {
		return fmt.Errorf("core: snapshot decided slot %d is after slot %d", s.DecidedSlot, s.Slot)
	}
	if len(s.Strategy) != 0 && len(s.Strategy) != l.ext.N {
		return fmt.Errorf("core: snapshot strategy has %d nodes, loop has %d", len(s.Strategy), l.ext.N)
	}
	k := l.ext.K()
	for _, v := range s.Winners {
		if v < 0 || v >= k {
			return fmt.Errorf("core: snapshot winner %d out of range [0,%d)", v, k)
		}
	}
	for _, v := range s.LastPlayed {
		if v < 0 || v >= k {
			return fmt.Errorf("core: snapshot played vertex %d out of range [0,%d)", v, k)
		}
	}
	return nil
}

// RestoreState validates and installs a snapshot taken from a loop over the
// same extended graph. Fresh slices are installed (never aliases of s), so
// previously published Winners/Strategy slices stay immutable. The protocol
// result of the snapshotted decision is not part of the state; Decision()
// reports nil until the next decision runs.
func (l *Loop) RestoreState(s LoopState) error {
	if err := l.ValidateState(s); err != nil {
		return err
	}
	l.slot = s.Slot
	l.decidedSlot = s.DecidedSlot
	l.lastPlayed = append(l.lastPlayed[:0], s.LastPlayed...)
	l.curWinners = append([]int(nil), s.Winners...)
	l.curStrategy = append(extgraph.Strategy(nil), s.Strategy...)
	l.curEstimate = s.EstimatedWeight
	l.curDecision = nil
	return nil
}
