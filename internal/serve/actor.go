package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/spec"
)

// ObservationBatch is one round of external observations: the played
// virtual-vertex ids and their realized rewards (normalized units, finite
// and non-negative). Each batch advances the instance by one slot, exactly
// like one transmission round of Algorithm 2.
type ObservationBatch struct {
	Played  []int     `json:"played"`
	Rewards []float64 `json:"rewards"`
}

// Assignment is the channel assignment an instance currently serves.
type Assignment struct {
	// Slot is the slot the assignment is valid for.
	Slot int `json:"slot"`
	// DecidedSlot is the slot the strategy was decided at (-1 before the
	// first decision; otherwise the largest update boundary ≤ Slot).
	DecidedSlot int `json:"decided_slot"`
	// Winners are the selected virtual-vertex ids, sorted ascending.
	Winners []int `json:"winners"`
	// Strategy is the per-node channel assignment (-1 = silent).
	Strategy []int `json:"strategy"`
	// EstimatedWeight is the index-weight sum of the strategy at decision
	// time (the W_x of §V-C, normalized units).
	EstimatedWeight float64 `json:"estimated_weight"`
}

// StepResult summarizes a batch of self-simulation slots.
type StepResult struct {
	// Slots is the number of slots run by this request.
	Slots int `json:"slots"`
	// Slot is the instance's completed slot count after the batch.
	Slot int `json:"slot"`
	// Observed is the summed realized throughput of the batch (normalized);
	// ObservedKbps is the same on the paper's kbps scale.
	Observed     float64 `json:"observed"`
	ObservedKbps float64 `json:"observed_kbps"`
	// Decisions is the number of MWIS strategy decisions run in the batch.
	Decisions int `json:"decisions"`
	// Assignment is the strategy in force after the batch.
	Assignment Assignment `json:"assignment"`
}

// ObserveResult reports an applied observation request.
type ObserveResult struct {
	// Applied is the number of observation batches (slots) applied.
	Applied int `json:"applied"`
	// Slot is the instance's completed slot count after the batches.
	Slot int `json:"slot"`
}

// Snapshot is the full restorable state of a hosted instance: the learner
// statistics plus the serving loop's position.
type Snapshot struct {
	ID              string       `json:"id"`
	Slot            int          `json:"slot"`
	DecidedSlot     int          `json:"decided_slot"`
	LastPlayed      []int        `json:"last_played"`
	Winners         []int        `json:"winners"`
	Strategy        []int        `json:"strategy"`
	EstimatedWeight float64      `json:"estimated_weight"`
	Learner         policy.State `json:"learner"`
}

// InstanceInfo summarizes a hosted instance.
type InstanceInfo struct {
	ID           string `json:"id"`
	Shard        int    `json:"shard"`
	N            int    `json:"n"`
	M            int    `json:"m"`
	K            int    `json:"k"`
	Policy       string `json:"policy"`
	Channel      string `json:"channel,omitempty"`
	UpdateEvery  int    `json:"update_every"`
	Slot         int    `json:"slot"`
	Decisions    int64  `json:"decisions"`
	Observations int64  `json:"observations"`
}

type reqKind uint8

const (
	reqStep reqKind = iota + 1
	reqObserve
	reqAssign
	reqSnapshot
	reqRestore
	reqInfo
)

type request struct {
	kind    reqKind
	slots   int
	batches []ObservationBatch
	snap    *Snapshot
	// reply receives the response; nil marks a fire-and-forget request
	// (async observations). Always buffered (cap 1) so the actor never
	// blocks on an abandoned sender.
	reply chan response
}

type response struct {
	step   *StepResult
	obs    *ObserveResult
	assign *Assignment
	snap   *Snapshot
	info   *InstanceInfo
	err    error
}

// instanceStats is the actor's published view of its progress counters,
// refreshed after every handled request. It lets the registry listing (and
// anything else that only needs a recent snapshot) read an instance without
// queueing behind its mailbox.
type instanceStats struct {
	slot         atomic.Int64
	decisions    atomic.Int64
	observations atomic.Int64
	// observedSlots and observedBits (float64 bits) are the regret window:
	// the slots whose realized rewards this process has seen, and their
	// summed reward (normalized). The window restarts with the process or a
	// restore — see the regret-telemetry notes in OPERATIONS.md.
	observedSlots atomic.Int64
	observedBits  atomic.Uint64
}

// Instance is a handle to one hosted instance. All methods are safe for
// concurrent use: they enqueue requests on the actor's mailbox (blocking
// while it is full — natural backpressure) and wait for the reply, except
// PushObservations which returns as soon as the batch is enqueued.
type Instance struct {
	id      string
	shard   int
	spec    spec.ScenarioSpec // canonical
	k       int
	dir     string // persisted instance directory ("" = not persisted)
	stats   *instanceStats
	abrupt  *atomic.Bool // set before close to skip the final snapshot
	mailbox chan request
	stop    chan struct{}
	closed  chan struct{}
	once    sync.Once
}

// ID returns the instance ID.
func (i *Instance) ID() string { return i.id }

// Shard returns the registry shard hosting the instance.
func (i *Instance) Shard() int { return i.shard }

// Spec returns the canonical scenario spec the instance was created from.
func (i *Instance) Spec() spec.ScenarioSpec { return i.spec }

// Config returns the canonicalized configuration the instance was created
// from.
func (i *Instance) Config() InstanceConfig { return InstanceConfig{ID: i.id, Spec: i.spec} }

// K returns the instance's arm count N·M.
func (i *Instance) K() int { return i.k }

func (i *Instance) close() {
	i.once.Do(func() { close(i.stop) })
}

// do enqueues a synchronous request and waits for the actor's reply. The
// leading stop check makes closure deterministic: once close returns, no
// new request is accepted (a bare two-way select could still pick the
// buffered mailbox send).
func (i *Instance) do(req request) (response, error) {
	return i.doReply(req, make(chan response, 1))
}

// doReply is do with a caller-supplied reply channel (buffered, cap 1 and
// empty). Reusing the channel across requests is safe for a serial caller:
// if doReply returns ErrClosed the actor has exited without serving the
// request — the reply send in the actor loop happens before the closed
// channel is closed, so "closed and no buffered reply" means no reply will
// ever arrive and the channel stays clean for the next request.
func (i *Instance) doReply(req request, reply chan response) (response, error) {
	select {
	case <-i.stop:
		return response{}, ErrClosed
	default:
	}
	req.reply = reply
	select {
	case i.mailbox <- req:
	case <-i.stop:
		return response{}, ErrClosed
	}
	select {
	case resp := <-req.reply:
		return resp, resp.err
	case <-i.closed:
		// The actor exited before serving the request; a reply may still
		// have raced the exit.
		select {
		case resp := <-req.reply:
			return resp, resp.err
		default:
			return response{}, ErrClosed
		}
	}
}

// Session is a reusable request context for one serial caller — a
// connection handler on the binary data plane, typically. It carries the
// reply channel the instance methods would otherwise allocate per request,
// so a session-driven hot path enqueues requests with zero allocations on
// the caller's side. A Session must not be used concurrently; a fresh
// zero-value Session is ready to use.
type Session struct {
	reply chan response
}

func (s *Session) replyChan() chan response {
	if s.reply == nil {
		s.reply = make(chan response, 1)
	}
	return s.reply
}

// Step is Instance.Step through the session's reusable reply channel.
func (s *Session) Step(i *Instance, n int) (*StepResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: step count must be positive, got %d", n)
	}
	resp, err := i.doReply(request{kind: reqStep, slots: n}, s.replyChan())
	if err != nil {
		return nil, err
	}
	return resp.step, nil
}

// Observe is Instance.Observe through the session's reusable reply channel.
func (s *Session) Observe(i *Instance, batches []ObservationBatch) (*ObserveResult, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("serve: no observation batches")
	}
	resp, err := i.doReply(request{kind: reqObserve, batches: batches}, s.replyChan())
	if err != nil {
		return nil, err
	}
	return resp.obs, nil
}

// Assignment is Instance.Assignment through the session's reusable reply
// channel.
func (s *Session) Assignment(i *Instance) (*Assignment, error) {
	resp, err := i.doReply(request{kind: reqAssign}, s.replyChan())
	if err != nil {
		return nil, err
	}
	return resp.assign, nil
}

// Info is Instance.Info through the session's reusable reply channel.
func (s *Session) Info(i *Instance) (*InstanceInfo, error) {
	resp, err := i.doReply(request{kind: reqInfo}, s.replyChan())
	if err != nil {
		return nil, err
	}
	resp.info.Shard = i.shard
	resp.info.Channel = i.spec.Channel.Kind
	return resp.info, nil
}

// Step runs n self-simulation slots (decide when due, transmit, observe the
// hosted channel model, update the learner).
func (i *Instance) Step(n int) (*StepResult, error) { return new(Session).Step(i, n) }

// Observe applies external observation batches synchronously: each batch is
// one slot's played arms and rewards.
func (i *Instance) Observe(batches []ObservationBatch) (*ObserveResult, error) {
	return new(Session).Observe(i, batches)
}

// PushObservations enqueues observation batches without waiting for them to
// be applied. Errors inside the batch (for example an out-of-range arm) are
// only visible in the shard's ObservationErrors counter; use Observe when
// per-request errors matter. Batches still queued when the instance closes
// are dropped.
func (i *Instance) PushObservations(batches []ObservationBatch) error {
	if len(batches) == 0 {
		return fmt.Errorf("serve: no observation batches")
	}
	select {
	case <-i.stop:
		return ErrClosed
	default:
	}
	select {
	case i.mailbox <- request{kind: reqObserve, batches: batches}:
		return nil
	case <-i.stop:
		return ErrClosed
	}
}

// Assignment returns the strategy for the instance's current slot, running
// the strategy decision first if the slot is an update boundary.
func (i *Instance) Assignment() (*Assignment, error) { return new(Session).Assignment(i) }

// Snapshot exports the instance's restorable state.
func (i *Instance) Snapshot() (*Snapshot, error) {
	resp, err := i.do(request{kind: reqSnapshot})
	if err != nil {
		return nil, err
	}
	return resp.snap, nil
}

// Restore replaces the learner and loop state with a snapshot taken from an
// instance of the same configuration. On a persisted instance the
// replacement is durable when Restore returns: the on-disk trajectory
// restarts at the snapshot's slot.
func (i *Instance) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("serve: nil snapshot")
	}
	_, err := i.do(request{kind: reqRestore, snap: s})
	return err
}

// Info returns a summary of the instance, serialized through the mailbox:
// it reflects every request enqueued before it (including fire-and-forget
// observations). For a lock-free approximate snapshot use InfoSnapshot.
func (i *Instance) Info() (*InstanceInfo, error) { return new(Session).Info(i) }

// Persisted reports whether the instance participates in the durability
// layer, and its on-disk directory when it does.
func (i *Instance) Persisted() (string, bool) { return i.dir, i.dir != "" }

// ObservedWindow returns the regret window the actor has published: the
// number of slots whose realized rewards this process observed, and their
// summed reward (normalized units). Like InfoSnapshot it reads the
// lock-free published stats, trailing in-flight work by at most a request.
func (i *Instance) ObservedWindow() (slots int64, total float64) {
	return i.stats.observedSlots.Load(), math.Float64frombits(i.stats.observedBits.Load())
}

// InfoSnapshot returns a summary without entering the mailbox, from the
// counters the actor publishes after each handled request. It can trail
// in-flight work by one request but never blocks — the registry listing
// uses it so one slow instance cannot stall monitoring.
func (i *Instance) InfoSnapshot() InstanceInfo {
	return InstanceInfo{
		ID:           i.id,
		Shard:        i.shard,
		N:            i.spec.Topology.N,
		M:            i.spec.Channel.M,
		K:            i.k,
		Policy:       i.spec.Policy.Kind,
		Channel:      i.spec.Channel.Kind,
		UpdateEvery:  i.spec.Decision.UpdateEvery,
		Slot:         int(i.stats.slot.Load()),
		Decisions:    i.stats.decisions.Load(),
		Observations: i.stats.observations.Load(),
	}
}

// actor owns all mutable state of one hosted instance: a core.Loop kernel
// (the shared Algorithm 2 slot procedure — decide, transmit, observe,
// update) plus the serving bookkeeping around it. Only the actor goroutine
// touches the loop; the decision-result slices it publishes in replies
// (winners, strategies) are never mutated after publication — the kernel
// installs fresh slices on every decision and restore — so replies are
// race-free without copying on the hot path.
type actor struct {
	id       string
	counters *ShardCounters
	stats    *instanceStats
	loop     *core.Loop
	learner  policy.Snapshotter // the loop's policy
	persist  *persister         // nil when the instance is not persisted
	abrupt   *atomic.Bool       // skip the final snapshot when set at close

	observations  int64
	observedSlots int64
	observedTotal float64
}

func (a *actor) run(mailbox chan request, stop, closed chan struct{}) {
	defer close(closed)
	defer a.persistFinal()
	for {
		select {
		case <-stop:
			return
		default:
		}
		select {
		case <-stop:
			return
		case req := <-mailbox:
			resp := a.handle(req)
			// Durability before the reply: a synchronous caller that got an
			// OK has its batch on disk under the instance's fsync policy.
			a.persistAfterRequest()
			a.publishStats()
			if req.reply != nil {
				req.reply <- resp
			}
		}
	}
}

// publishStats refreshes the lock-free snapshot read by InfoSnapshot.
func (a *actor) publishStats() {
	a.stats.slot.Store(int64(a.loop.Slot()))
	a.stats.decisions.Store(a.loop.Decisions())
	a.stats.observations.Store(a.observations)
	a.stats.observedSlots.Store(a.observedSlots)
	a.stats.observedBits.Store(math.Float64bits(a.observedTotal))
}

func (a *actor) handle(req request) response {
	switch req.kind {
	case reqStep:
		res, err := a.step(req.slots)
		return response{step: res, err: err}
	case reqObserve:
		res, err := a.observe(req.batches)
		if err != nil && req.reply == nil {
			a.counters.ObservationErrors.Add(1)
		}
		return response{obs: res, err: err}
	case reqAssign:
		as, err := a.assignment()
		return response{assign: as, err: err}
	case reqSnapshot:
		return response{snap: a.snapshot()}
	case reqRestore:
		return response{err: a.restore(req.snap)}
	case reqInfo:
		return response{info: a.info()}
	default:
		return response{err: fmt.Errorf("serve: unknown request kind %d", req.kind)}
	}
}

// trackDecisions returns a func that publishes the kernel's decision-count
// and decide-stat deltas to the shard counters; defer it around any request
// that may decide, so the counters stay truthful even on a mid-batch
// failure.
func (a *actor) trackDecisions() func() {
	before := a.loop.Decisions()
	statsBefore := a.loop.DecideStats()
	return func() {
		if d := a.loop.Decisions() - before; d > 0 {
			a.counters.Decisions.Add(d)
		}
		delta := a.loop.DecideStats().Sub(statsBefore)
		if delta == (protocol.DecideStats{}) {
			return
		}
		a.counters.FullDecides.Add(delta.FullDecides)
		a.counters.EpochSkips.Add(delta.EpochSkips)
		a.counters.LeaderSkips.Add(delta.LeaderSkips)
		a.counters.SensitivitySkips.Add(delta.SensitivitySkips)
		a.counters.MemoStructHits.Add(delta.MemoStructHits)
		a.counters.MemoMisses.Add(delta.MemoMisses)
		a.counters.BudgetStops.Add(delta.BudgetStops)
		a.counters.MiniRounds.Add(delta.MiniRounds)
		a.counters.WeightBroadcasts.Add(delta.WeightBroadcasts)
		a.counters.LeaderDeclarations.Add(delta.LeaderDeclarations)
		a.counters.LocalBroadcasts.Add(delta.LocalBroadcasts)
		a.counters.MiniTimeslots.Add(delta.MiniTimeslots)
	}
}

func (a *actor) step(n int) (*StepResult, error) {
	decBefore := a.loop.Decisions()
	total := 0.0
	// Count what was actually applied even if a mid-batch decision fails,
	// so the shard counters never diverge from the instance's slot count.
	applied := 0
	defer a.trackDecisions()()
	defer func() {
		if applied > 0 {
			a.counters.Slots.Add(int64(applied))
		}
	}()
	obs := a.observer()
	for i := 0; i < n; i++ {
		x, err := a.loop.StepSampled(obs)
		if err != nil {
			return nil, err
		}
		total += x
		applied++
		a.observedSlots++
		a.observedTotal += x
	}
	return &StepResult{
		Slots:        n,
		Slot:         a.loop.Slot(),
		Observed:     total,
		ObservedKbps: channel.Kbps(total),
		Decisions:    int(a.loop.Decisions() - decBefore),
		Assignment:   a.currentAssignment(),
	}, nil
}

func (a *actor) observe(batches []ObservationBatch) (*ObserveResult, error) {
	// Validate every batch before applying any: clients retry whole
	// requests, so a mid-request validation failure must not leave earlier
	// batches half-applied (it would silently break serial equivalence).
	k := a.loop.Ext().K()
	for bi, b := range batches {
		if len(b.Played) != len(b.Rewards) {
			return nil, fmt.Errorf("serve: batch %d has %d played arms but %d rewards", bi, len(b.Played), len(b.Rewards))
		}
		for _, v := range b.Played {
			if v < 0 || v >= k {
				return nil, fmt.Errorf("serve: batch %d: arm %d out of range [0,%d)", bi, v, k)
			}
		}
		// A negative or NaN reward would poison the arm's index and fail
		// every later decision; +Inf would pin the arm's index for good.
		for i, x := range b.Rewards {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 1) {
				return nil, fmt.Errorf("serve: batch %d: reward %v for arm %d is not a finite non-negative number", bi, x, b.Played[i])
			}
		}
	}
	applied := 0
	defer a.trackDecisions()()
	defer func() {
		if applied > 0 {
			a.counters.Slots.Add(int64(applied))
			a.counters.Observations.Add(int64(applied))
		}
	}()
	obs := a.observer()
	for bi, b := range batches {
		if err := a.loop.StepExternal(b.Played, b.Rewards, obs); err != nil {
			return nil, fmt.Errorf("serve: observation batch %d: %w", bi, err)
		}
		a.observations++
		applied++
		a.observedSlots++
		for _, x := range b.Rewards {
			a.observedTotal += x
		}
	}
	return &ObserveResult{Applied: applied, Slot: a.loop.Slot()}, nil
}

// currentAssignment publishes the current strategy. The winner/strategy
// slices are shared with the kernel but immutable once published (decisions
// and restores install fresh slices), so no copy is needed.
func (a *actor) currentAssignment() Assignment {
	winners := a.loop.Winners()
	if winners == nil {
		winners = []int{}
	}
	strategy := a.loop.Strategy()
	if strategy == nil {
		strategy = extgraph.Strategy{}
	}
	return Assignment{
		Slot:            a.loop.Slot(),
		DecidedSlot:     a.loop.DecidedSlot(),
		Winners:         winners,
		Strategy:        strategy,
		EstimatedWeight: a.loop.EstimatedWeight(),
	}
}

func (a *actor) assignment() (*Assignment, error) {
	defer a.trackDecisions()()
	if _, err := a.loop.EnsureDecided(); err != nil {
		return nil, err
	}
	as := a.currentAssignment()
	return &as, nil
}

func (a *actor) snapshot() *Snapshot {
	st := a.loop.ExportState()
	return &Snapshot{
		ID:              a.id,
		Slot:            st.Slot,
		DecidedSlot:     st.DecidedSlot,
		LastPlayed:      st.LastPlayed,
		Winners:         st.Winners,
		Strategy:        st.Strategy,
		EstimatedWeight: st.EstimatedWeight,
		Learner:         a.learner.Snapshot(),
	}
}

// restoreState installs a snapshot into a loop and its learner. The loop
// state is validated before the learner is touched, so a rejected snapshot
// leaves both unchanged.
func restoreState(loop *core.Loop, learner policy.Snapshotter, s *Snapshot) error {
	st := core.LoopState{
		Slot:            s.Slot,
		DecidedSlot:     s.DecidedSlot,
		LastPlayed:      s.LastPlayed,
		Winners:         s.Winners,
		Strategy:        extgraph.Strategy(s.Strategy),
		EstimatedWeight: s.EstimatedWeight,
	}
	if err := loop.ValidateState(st); err != nil {
		return err
	}
	if err := learner.Restore(s.Learner); err != nil {
		return err
	}
	return loop.RestoreState(st)
}

// restore replaces the instance's state with s and, on a persisted
// instance, makes the replacement durable before the reply.
func (a *actor) restore(s *Snapshot) error {
	a.beginRestore()
	if err := restoreState(a.loop, a.learner, s); err != nil {
		return err
	}
	// The regret window measures what THIS trajectory observed; a restore
	// starts a new one.
	a.observedSlots, a.observedTotal = 0, 0
	a.endRestore()
	return nil
}

func (a *actor) info() *InstanceInfo {
	ext := a.loop.Ext()
	return &InstanceInfo{
		ID:           a.id,
		N:            ext.N,
		M:            ext.M,
		K:            ext.K(),
		Policy:       a.loop.Policy().Name(),
		UpdateEvery:  a.loop.UpdateEvery(),
		Slot:         a.loop.Slot(),
		Decisions:    a.loop.Decisions(),
		Observations: a.observations,
	}
}
