// Package distnet executes the distributed strategy decision (Algorithm 3)
// as a genuinely concurrent system: one goroutine per extended-conflict-
// graph vertex, each owning a mailbox and acting only on the WB/LS/LB
// frames it receives over a pluggable Transport — in-process channels or a
// real TCP loopback mesh — optionally wrapped in a composable fault layer
// (loss, bursts, latency, jitter, reordering, named partitions, and
// crash/restart blackouts).
//
// The agent rules live in rules.go. Scheduling is up to the Go runtime and
// the transport, yet outcomes are deterministic because every rule is
// order-independent — relays are distance-gated (a pure membership test),
// loss is keyed by frame-copy identity, and conflicting determinations
// resolve by leader priority. Each leader solves its local MWIS as
// protocol.Decider does, over its candidate ball prepared from H's
// adjacency rows (mwis.Prepared.PrepareInduced, then mwis.SolveOn). The
// fault-free execution is bit-identical to protocol.Decider's winner sets:
// concurrency changes the execution, never the answer. That identity is
// golden-tested, and so is frame-for-frame agreement under equal loss
// seeds with a sequential oracle in the tests, which floods by
// breadth-first search and solves each leader's ball as a list graph.
//
// A decision advances through the paper's synchronized phases (weight
// broadcast, then per mini-round: election, leader declaration, local
// split, determination broadcast). The coordinator drives the phase clock
// — the stand-in for the paper's synchronized mini-slots — using
// Dijkstra–Scholten-style credit counting for quiescence: every frame copy
// and control message holds one credit from submission until fully
// processed, so a phase barrier is simply "the credit counter returned to
// zero". Protocol traffic itself only ever flows through the Transport.
package distnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/mwis"
)

// Config parameterizes a Runtime.
type Config struct {
	// Ext is the extended conflict graph the decision runs on.
	Ext *extgraph.Extended
	// R is the ball parameter r (default 2), as in internal/protocol.
	R int
	// D caps the mini-rounds per decision; 0 means run to quiescence,
	// bounded by the vertex count.
	D int
	// Solver computes each LocalLeader's local MWIS (default mwis.Hybrid).
	Solver mwis.Solver
	// Transport moves frames between agents (default NewChanTransport).
	// Wrap it in a FaultTransport to inject faults.
	Transport Transport
	// Metrics, when non-nil, accumulates telemetry across decisions. Pass
	// the same Metrics to the FaultTransport to get drop/delay counts too.
	Metrics *Metrics
}

// Result is the outcome of one concurrent strategy decision.
type Result struct {
	// Winners lists the vertices that believe they won, sorted ascending.
	// Under faults the set may fail independence.
	Winners []int
	// Played is the winner set actually schedulable: per node the lowest
	// winning channel, minus both members of any remaining conflicting
	// pair. Equal to Winners whenever Winners is independent.
	Played []int
	// Strategy is Played as a per-node channel assignment.
	Strategy extgraph.Strategy
	// Frames attributes the decision's control-frame volume to the WB, LS
	// and LB floods, split into originations and relays.
	Frames FrameStats
	// MiniRounds is the number of mini-rounds executed.
	MiniRounds int
	// Undetermined counts the agents still undecided when the decision
	// ended (zero iff Converged) — the per-vertex common-knowledge failure
	// count under faults.
	Undetermined int
	// Leaders is the total number of LocalLeader elections across rounds.
	Leaders int
	// BudgetStops counts the leaders whose local MWIS search stopped at
	// the solver's node budget (mwis.Workspace.BudgetStop), so that they
	// flooded an incumbent or greedy set rather than a proven optimum.
	BudgetStops int
	// Converged reports whether every live agent decided before the cap.
	Converged bool
	// Independent reports whether Winners is an independent set of H.
	Independent bool
}

// Runtime hosts the agents for one extended conflict graph. Decide may be
// called repeatedly (not concurrently); Close tears the agents down.
type Runtime struct {
	ext    *extgraph.Extended
	h      *graph.Graph
	r      int
	solver mwis.Solver
	tr     Transport
	m      *Metrics

	balls     *ballSets
	agents    []*agent
	maxRounds int

	// rows are H's adjacency rows (bit u of rows[v] set iff u and v are
	// adjacent), which every leader's ball is prepared from. splits lends
	// a leader one *splitScratch for the duration of one split: leaders
	// split concurrently, and a scratch per agent would keep a
	// parent-sized renumbering index (in its mwis.Workspace) per agent.
	rows   [][]uint64
	splits sync.Pool

	credits atomic.Int64
	zeroCh  chan struct{}

	failMu  sync.Mutex
	failErr error

	decisions int
	closed    bool
	wg        sync.WaitGroup
}

// New builds the runtime, starts its transport, and launches one agent
// goroutine per vertex.
func New(cfg Config) (*Runtime, error) {
	if cfg.Ext == nil {
		return nil, errors.New("distnet: nil extended graph")
	}
	r := cfg.R
	if r == 0 {
		r = 2
	}
	if r < 1 {
		return nil, fmt.Errorf("distnet: r must be >= 1, got %d", r)
	}
	if cfg.D < 0 {
		return nil, fmt.Errorf("distnet: D must be >= 0, got %d", cfg.D)
	}
	solver := cfg.Solver
	if solver == nil {
		solver = mwis.Hybrid{}
	}
	tr := cfg.Transport
	if tr == nil {
		tr = NewChanTransport()
	}
	h := cfg.Ext.H
	n := h.N()
	maxRounds := cfg.D
	if maxRounds == 0 {
		maxRounds = n
	}
	rt := &Runtime{
		ext:       cfg.Ext,
		h:         h,
		r:         r,
		solver:    solver,
		tr:        tr,
		m:         cfg.Metrics,
		balls:     newBallSets(h, r),
		agents:    make([]*agent, n),
		maxRounds: maxRounds,
		rows:      make([][]uint64, n),
		zeroCh:    make(chan struct{}, 1),
	}
	rt.splits.New = func() any { return new(splitScratch) }
	words := (n + 63) / 64
	arena := make([]uint64, n*words)
	for v := range rt.rows {
		rt.rows[v] = arena[v*words : (v+1)*words : (v+1)*words]
		for _, u := range h.Neighbors(v) {
			rt.rows[v][u/64] |= 1 << (uint(u) % 64)
		}
	}
	if err := tr.Start(n, sink{rt}); err != nil {
		return nil, fmt.Errorf("distnet: transport start: %w", err)
	}
	for v := 0; v < n; v++ {
		a := &agent{
			id:     v,
			rt:     rt,
			view:   newView(v, rt.balls.Ball2R1[v]),
			seenWB: make([]int64, len(rt.balls.Ball2R1[v])),
			seenLS: make([]int64, len(rt.balls.Ball2R1[v])),
			seenLB: make([]int64, len(rt.balls.Ball3R2[v])),
		}
		a.mb.cond = sync.NewCond(&a.mb.mu)
		rt.agents[v] = a
	}
	rt.wg.Add(n)
	for _, a := range rt.agents {
		go a.run()
	}
	return rt, nil
}

// Crash blacks out agent v: it discards every frame processed while down
// and originates nothing, but keeps its state — only traffic during the
// blackout is lost, which is exactly the in-flight-frames-only contract.
// Call between Decide calls (or between phases) for deterministic runs.
func (rt *Runtime) Crash(v int) { rt.agents[v].down.Store(true) }

// Restart brings a crashed agent back; it resumes with its prior state.
func (rt *Runtime) Restart(v int) { rt.agents[v].down.Store(false) }

// credit accounting --------------------------------------------------------

func (rt *Runtime) hold() { rt.credits.Add(1) }

func (rt *Runtime) done() {
	if rt.credits.Add(-1) == 0 {
		select {
		case rt.zeroCh <- struct{}{}:
		default:
		}
	}
}

// barrier blocks until every submitted credit has resolved — all control
// messages processed, every frame copy delivered (through any delay queue)
// and handled, or dropped — then advances the fault layer's burst clock.
func (rt *Runtime) barrier() {
	for rt.credits.Load() != 0 {
		<-rt.zeroCh
	}
	if t, ok := rt.tr.(interface{ Tick() }); ok {
		t.Tick()
	}
}

func (rt *Runtime) fail(err error) {
	rt.failMu.Lock()
	if rt.failErr == nil {
		rt.failErr = err
	}
	rt.failMu.Unlock()
}

// sink adapts the Runtime to the Transport's delivery interface.
type sink struct{ rt *Runtime }

// Deliver enqueues the copy; its credit resolves after the agent processes
// it.
func (s sink) Deliver(to int, f Frame) {
	s.rt.agents[to].mb.put(message{frame: f})
}

// Dropped resolves the copy's credit immediately.
func (s sink) Dropped(int, Frame, string) { s.rt.done() }

// Decide runs one concurrent strategy decision from per-vertex index
// weights. It must not be called concurrently with itself.
func (rt *Runtime) Decide(weights []float64) (*Result, error) {
	n := rt.h.N()
	if len(weights) != n {
		return nil, fmt.Errorf("distnet: %d weights for %d vertices", len(weights), n)
	}
	if rt.closed {
		return nil, errors.New("distnet: runtime closed")
	}
	dec := rt.decisions
	rt.decisions++

	// Reset phase: every agent (even crashed ones — its own weight is
	// local knowledge) starts the decision fresh.
	for _, a := range rt.agents {
		rt.hold()
		a.mb.put(message{ctrl: ctrlReset, decision: dec, weight: weights[a.id]})
	}
	rt.barrier()

	// WB phase: every live agent floods its weight to its (2r+1)-ball.
	rt.ctrlAll(ctrlWB, 0)
	rt.barrier()

	res := &Result{}
	for tau := 0; tau < rt.maxRounds; tau++ {
		// Election phase: no frames — each agent applies the LocalLeader
		// rule to its own view, then declares via an LS flood.
		rt.ctrlAll(ctrlElect, tau)
		rt.barrier()
		if err := rt.failed(); err != nil {
			return nil, err
		}
		var leaders []*agent
		for _, a := range rt.agents {
			if a.leader {
				leaders = append(leaders, a)
			}
		}
		if len(leaders) == 0 {
			break
		}
		res.Leaders += len(leaders)

		// Split phase: every leader solves its local MWIS from the
		// post-election view snapshot. Barriered before any LB flies, so
		// concurrent determinations cannot leak into a split's input.
		for _, a := range leaders {
			rt.hold()
			a.mb.put(message{ctrl: ctrlSplit, round: tau})
		}
		rt.barrier()
		if err := rt.failed(); err != nil {
			return nil, err
		}

		// LB phase: leaders flood their determinations; receivers apply
		// them under the leader-priority rule, so arrival order is moot.
		for _, a := range leaders {
			rt.hold()
			a.mb.put(message{ctrl: ctrlLB, round: tau})
		}
		rt.barrier()

		res.MiniRounds++
		undecided := 0
		for _, a := range rt.agents {
			if a.view.Self == candidate {
				undecided++
			}
		}
		res.Undetermined = undecided
		if undecided == 0 {
			res.Converged = true
			break
		}
	}
	if err := rt.failed(); err != nil {
		return nil, err
	}

	for _, a := range rt.agents {
		if a.view.Self == winner {
			res.Winners = append(res.Winners, a.id)
		}
		res.Frames.Add(a.frames)
		res.BudgetStops += a.budgetStops
	}
	res.Independent = rt.h.IsIndependent(res.Winners)
	res.Played = rt.resolvePlayed(res.Winners, res.Independent)
	strategy, err := rt.ext.StrategyFromVertices(res.Played)
	if err != nil {
		return nil, fmt.Errorf("distnet: internal error: played set not schedulable: %w", err)
	}
	res.Strategy = strategy

	if rt.m != nil {
		rt.m.decisions.Add(1)
		rt.m.miniRounds.Add(int64(res.MiniRounds))
		if !res.Converged {
			rt.m.convergenceFailures.Add(1)
		}
		if !res.Independent {
			rt.m.nonIndependent.Add(1)
		}
	}
	return res, nil
}

func (rt *Runtime) ctrlAll(kind ctrlKind, round int) {
	for _, a := range rt.agents {
		rt.hold()
		a.mb.put(message{ctrl: kind, round: round})
	}
}

func (rt *Runtime) failed() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.failErr
}

// resolvePlayed turns the believed winner set into a schedulable one: per
// node the lowest winning channel, then both members of every remaining
// conflicting pair are excluded (neither radio can safely transmit). The
// pruning is deterministic, so served trajectories stay reproducible even
// under faults.
func (rt *Runtime) resolvePlayed(winners []int, independent bool) []int {
	if independent {
		return winners
	}
	m := rt.ext.M
	lowest := make(map[int]int, len(winners))
	for _, v := range winners { // winners is sorted, so first hit per node is lowest channel
		node := v / m
		if _, ok := lowest[node]; !ok {
			lowest[node] = v
		}
	}
	cands := make([]int, 0, len(lowest))
	for _, v := range lowest {
		cands = append(cands, v)
	}
	sort.Ints(cands)
	bad := make(map[int]bool)
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if rt.h.HasEdge(cands[i], cands[j]) {
				bad[cands[i]] = true
				bad[cands[j]] = true
			}
		}
	}
	played := cands[:0]
	for _, v := range cands {
		if !bad[v] {
			played = append(played, v)
		}
	}
	return played
}

// Close shuts the agents and the transport down. The runtime must be
// quiescent (no Decide in flight).
func (rt *Runtime) Close() error {
	if rt.closed {
		return nil
	}
	rt.closed = true
	for _, a := range rt.agents {
		a.mb.close()
	}
	rt.wg.Wait()
	return rt.tr.Close()
}

// messages -----------------------------------------------------------------

type ctrlKind uint8

const (
	ctrlNone ctrlKind = iota // protocol frame
	ctrlReset
	ctrlWB
	ctrlElect
	ctrlSplit
	ctrlLB
)

type message struct {
	ctrl     ctrlKind
	round    int
	decision int
	weight   float64
	frame    Frame
}

// mailbox is an unbounded FIFO queue. Unboundedness matters: flood relays
// enqueue into neighbors while those neighbors are themselves relaying, so
// any bounded mailbox could deadlock the mesh.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []message
	closed bool
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *mailbox) get() (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.q) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.q) == 0 {
		return message{}, false
	}
	m := mb.q[0]
	mb.q = mb.q[1:]
	return m, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// agent --------------------------------------------------------------------

// agent is one vertex's goroutine state. Everything below the mailbox is
// owned by the agent goroutine; the coordinator reads it only at phase
// barriers, ordered by the credit counter's atomics.
type agent struct {
	id   int
	rt   *Runtime
	mb   mailbox
	down atomic.Bool

	decision int
	weight   float64
	view     *view
	leader   bool
	winners  []int
	losers   []int
	frames   FrameStats
	arBuf    []int
	// budgetStops counts this decision's local solves that stopped at the
	// solver's node budget.
	budgetStops int

	// Flood dedup stamps, ball-indexed; a stamp encodes (decision, round)
	// so stale entries never need clearing and early-arriving frames of
	// the current flood are never double-relayed.
	seenWB []int64
	seenLS []int64
	seenLB []int64
}

func (a *agent) run() {
	defer a.rt.wg.Done()
	for {
		m, ok := a.mb.get()
		if !ok {
			return
		}
		a.handle(m)
		a.rt.done()
	}
}

func (a *agent) stamp(round int) int64 {
	return int64(a.decision)*int64(a.rt.maxRounds+1) + int64(round) + 1
}

func (a *agent) handle(m message) {
	switch m.ctrl {
	case ctrlReset:
		a.decision = m.decision
		a.weight = m.weight
		a.view.Reset(m.weight)
		a.leader = false
		a.winners, a.losers = nil, nil
		a.frames = FrameStats{}
		a.budgetStops = 0

	case ctrlWB:
		if a.down.Load() {
			return
		}
		if i := indexOf(a.rt.balls.Ball2R1[a.id], a.id); i >= 0 {
			a.seenWB[i] = a.stamp(0)
		}
		a.broadcast(Frame{
			Decision: a.decision, Kind: FrameWB, Origin: a.id, Weight: a.weight,
		}, true)

	case ctrlElect:
		a.leader = false
		if a.down.Load() {
			return
		}
		if a.view.Self == candidate && a.view.SelfElect() {
			a.leader = true
			if i := indexOf(a.rt.balls.Ball2R1[a.id], a.id); i >= 0 {
				a.seenLS[i] = a.stamp(m.round)
			}
			a.broadcast(Frame{
				Decision: a.decision, Kind: FrameLS, Origin: a.id, Round: m.round,
			}, true)
		}

	case ctrlSplit:
		if !a.leader || a.down.Load() {
			return
		}
		a.arBuf = a.view.Candidates(a.rt.balls.BallR[a.id], a.arBuf)
		winners, losers, stopped, err := a.rt.split(a.arBuf, a.view.KnownWeight)
		if err != nil {
			a.rt.fail(fmt.Errorf("distnet: leader %d: %w", a.id, err))
			return
		}
		a.winners, a.losers = winners, losers
		if stopped {
			a.budgetStops++
		}

	case ctrlLB:
		if !a.leader || a.down.Load() {
			return
		}
		if i := indexOf(a.rt.balls.Ball3R2[a.id], a.id); i >= 0 {
			a.seenLB[i] = a.stamp(m.round)
		}
		// The origin "receives" its own flood: apply the determination
		// locally, exactly as the sequential oracle in the tests does.
		a.view.Apply(a.rt.h, m.round, a.id, a.winners, a.losers)
		a.broadcast(Frame{
			Decision: a.decision, Kind: FrameLB, Origin: a.id, Round: m.round,
			Winners: a.winners, Losers: a.losers,
		}, true)

	case ctrlNone:
		a.onFrame(m.frame)
	}
}

// splitScratch is one local solve's preparation, workspace and buffers.
type splitScratch struct {
	pre  mwis.Prepared
	ws   mwis.Workspace
	w    []float64
	inIS []bool
}

// split computes one leader's determination: the MWIS of the subgraph its
// candidate set ar (ascending, leader included) induces in H, splitting ar
// into winners and losers. w maps a candidate to the weight the leader
// knows for it. A search that stops at the solver's budget reports stopped
// and plays its best-effort set, as protocol.Decider does. The returned
// slices are fresh: LB frames forward them without copying.
func (rt *Runtime) split(ar []int, w func(int) float64) (winners, losers []int, stopped bool, err error) {
	sc := rt.splits.Get().(*splitScratch)
	defer rt.splits.Put(sc)
	sc.w = sc.w[:0]
	for _, u := range ar {
		sc.w = append(sc.w, w(u))
	}
	sc.pre.PrepareInduced(rt.rows, ar, &sc.ws)
	localIS, err := mwis.SolveOn(rt.solver, &sc.pre, sc.w, &sc.ws)
	if err != nil {
		return nil, nil, false, fmt.Errorf("local MWIS: %w", err)
	}
	if cap(sc.inIS) < len(ar) {
		sc.inIS = make([]bool, len(ar))
	}
	inIS := sc.inIS[:len(ar)]
	for _, li := range localIS {
		inIS[li] = true
	}
	for i, u := range ar {
		if inIS[i] {
			winners = append(winners, u)
		} else {
			losers = append(losers, u)
		}
		inIS[i] = false
	}
	return winners, losers, sc.ws.BudgetStop, nil
}

// onFrame applies the shared receive-and-relay rules to one frame copy.
func (a *agent) onFrame(f Frame) {
	rt := a.rt
	if a.down.Load() {
		rt.m.crashDiscard()
		return
	}
	if f.Decision != a.decision {
		rt.m.violation()
		return
	}
	switch f.Kind {
	case FrameWB:
		i := indexOf(rt.balls.Ball2R1[a.id], f.Origin)
		if i < 0 {
			rt.m.violation()
			return
		}
		st := a.stamp(0)
		if a.seenWB[i] == st {
			return // duplicate copy of an already-received flood
		}
		a.seenWB[i] = st
		a.view.LearnWeight(f.Origin, f.Weight)
		if indexOf(rt.balls.Ball2R[a.id], f.Origin) >= 0 {
			a.broadcast(f, false)
		}

	case FrameLS:
		i := indexOf(rt.balls.Ball2R1[a.id], f.Origin)
		if i < 0 {
			rt.m.violation()
			return
		}
		st := a.stamp(f.Round)
		if a.seenLS[i] == st {
			return
		}
		a.seenLS[i] = st
		// The declaration carries no state the LB does not supersede;
		// receipt only gates relaying.
		if indexOf(rt.balls.Ball2R[a.id], f.Origin) >= 0 {
			a.broadcast(f, false)
		}

	case FrameLB:
		i := indexOf(rt.balls.Ball3R2[a.id], f.Origin)
		if i < 0 {
			rt.m.violation()
			return
		}
		st := a.stamp(f.Round)
		if a.seenLB[i] == st {
			return
		}
		a.seenLB[i] = st
		a.view.Apply(rt.h, f.Round, f.Origin, f.Winners, f.Losers)
		if indexOf(rt.balls.Ball3R1[a.id], f.Origin) >= 0 {
			a.broadcast(f, false)
		}
	}
}

// broadcast sends one local-broadcast frame: one copy per conflict-graph
// neighbor, each holding a credit until the transport resolves it.
func (a *agent) broadcast(f Frame, origination bool) {
	f.From = a.id
	cnt := a.frames.Kind(f.Kind)
	if origination {
		cnt.Originations++
	} else {
		cnt.Relays++
	}
	a.rt.m.frameSent(f.Kind)
	for _, u := range a.rt.h.Neighbors(a.id) {
		a.rt.hold()
		a.rt.tr.Send(a.id, u, f)
	}
}
