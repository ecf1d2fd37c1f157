package distnet

import (
	"errors"
	"fmt"
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/mwis"
)

// This file holds the sequential oracle the agents are cross-checked
// against: one loop simulates Algorithm 3 at message granularity, every
// vertex acting only on the frames that reached it. It floods by
// breadth-first search instead of by goroutines and a transport, draws
// loss from the same identity hash as the fault layer, and solves each
// leader's ball as a list graph (InducedSubgraph, then Solve) instead of
// over prepared adjacency rows. It shares rules.go with the agents, so the
// cross-check is a differential test of the flooding and of the local
// split under loss.

// oracleConfig parameterizes an oracle.
type oracleConfig struct {
	// Ext is the extended conflict graph the decision runs on.
	Ext *extgraph.Extended
	// R is the ball parameter r (default 2).
	R int
	// D caps the mini-rounds per decision. 0 means "run until every agent
	// has decided or no progress is possible", bounded by the vertex count.
	D int
	// Solver computes each LocalLeader's local MWIS (default mwis.Hybrid).
	Solver mwis.Solver
	// DropProb is the independent per-link loss probability of one frame
	// transmission, drawn as Faults.Loss is.
	DropProb float64
	// LossSeed seeds the loss process, as Faults.Seed does.
	LossSeed int64
}

// oracle executes message-granular strategy decisions sequentially over a
// fixed extended conflict graph.
type oracle struct {
	ext    *extgraph.Extended
	d      int
	solver mwis.Solver
	drop   dropFunc

	balls *ballSets
	views []*view
	sim   floodSim

	decisions int // decision counter keying per-decision loss draws
}

// newOracle builds an oracle and precomputes the hop-neighborhoods.
func newOracle(cfg oracleConfig) (*oracle, error) {
	if cfg.Ext == nil {
		return nil, errors.New("oracle: nil extended graph")
	}
	r := cfg.R
	if r == 0 {
		r = 2
	}
	if r < 1 {
		return nil, fmt.Errorf("oracle: r must be >= 1, got %d", r)
	}
	if cfg.D < 0 {
		return nil, fmt.Errorf("oracle: D must be >= 0, got %d", cfg.D)
	}
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		return nil, fmt.Errorf("oracle: DropProb must be in [0,1), got %v", cfg.DropProb)
	}
	solver := cfg.Solver
	if solver == nil {
		solver = mwis.Hybrid{}
	}
	h := cfg.Ext.H
	n := h.N()
	o := &oracle{
		ext:    cfg.Ext,
		d:      cfg.D,
		solver: solver,
		drop:   hashDrop(cfg.LossSeed, cfg.DropProb),
		balls:  newBallSets(h, r),
		views:  make([]*view, n),
		sim:    newFloodSim(h),
	}
	for v := 0; v < n; v++ {
		o.views[v] = newView(v, o.balls.Ball2R1[v])
	}
	return o, nil
}

// oracleResult is the outcome of one oracle decision.
type oracleResult struct {
	// Winners lists the vertices that believe they are in the output set,
	// sorted ascending. Under loss the set may fail independence.
	Winners []int
	// Frames attributes the control-frame volume of the decision to the
	// WB, LS and LB floods, split into originations and relays.
	Frames FrameStats
	// MiniRounds is the number of mini-rounds executed.
	MiniRounds int
	// Undetermined counts the vertices still undecided when the decision
	// ended (zero iff Converged).
	Undetermined int
	// Converged reports whether every agent decided before the cap.
	Converged bool
	// Independent reports whether Winners is an independent set of H
	// (always true when DropProb is 0).
	Independent bool
}

// dropFunc decides the fate of one frame copy on the directed link
// from->to, as a pure function of the copy's identity.
type dropFunc func(decision int, kind FrameKind, round, origin, from, to int) bool

// hashDrop builds the independent-loss dropFunc: each frame copy is lost
// with probability p, decided by the copy's identity hash under seed —
// the draw FaultTransport makes for Faults.Loss.
func hashDrop(seed int64, p float64) dropFunc {
	if p <= 0 {
		return nil
	}
	return func(decision int, kind FrameKind, round, origin, from, to int) bool {
		return unitHash(seed, decision, kind, round, origin, from, to) < p
	}
}

// localSplit is the list-graph form of Runtime.split: it builds the
// subgraph ar induces in h, solves it with Solve, and splits ar into
// winners and losers. A solver budget overrun degrades to the solver's
// best-effort set.
func localSplit(h *graph.Graph, solver mwis.Solver, ar []int, w func(int) float64) (winners, losers []int, err error) {
	sub, origIDs := h.InducedSubgraph(ar)
	ws := make([]float64, len(origIDs))
	for i, u := range origIDs {
		ws[i] = w(u)
	}
	localIS, err := solver.Solve(mwis.Instance{G: sub, W: ws})
	if err != nil && !errors.Is(err, mwis.ErrBudgetExceeded) {
		return nil, nil, fmt.Errorf("local MWIS: %w", err)
	}
	inIS := make(map[int]bool, len(localIS))
	for _, li := range localIS {
		inIS[origIDs[li]] = true
	}
	for _, u := range ar {
		if inIS[u] {
			winners = append(winners, u)
		} else {
			losers = append(losers, u)
		}
	}
	return winners, losers, nil
}

// floodSim is reusable scratch for simulating one distance-gated flood as
// the monotone fixpoint it is: a vertex relays a first-seen payload iff it
// lies strictly inside the flood radius (its relay gate contains the
// origin), so the delivered set does not depend on exploration order and
// matches what the agents compute frame by frame.
type floodSim struct {
	h        *graph.Graph
	received []bool
	inGate   []bool
	reached  []int
	queue    []int
}

func newFloodSim(h *graph.Graph) floodSim {
	n := h.N()
	return floodSim{
		h:        h,
		received: make([]bool, n),
		inGate:   make([]bool, n),
		reached:  make([]int, 0, n),
		queue:    make([]int, 0, n),
	}
}

// run simulates the flood from origin. gate is the sorted relay-gate ball
// of the origin (radius-1 hops, symmetric to the per-agent gate check);
// drop decides each copy's fate from the (from, to) link. It returns the
// delivered vertices (origin first; valid until the next run) and the
// number of relaying broadcasts (excluding the origin's own).
func (fs *floodSim) run(origin int, gate []int, drop func(from, to int) bool) (reached []int, relays int) {
	for _, u := range gate {
		fs.inGate[u] = true
	}
	fs.reached = fs.reached[:0]
	fs.queue = fs.queue[:0]
	fs.received[origin] = true
	fs.reached = append(fs.reached, origin)
	fs.queue = append(fs.queue, origin)
	for head := 0; head < len(fs.queue); head++ {
		v := fs.queue[head]
		if v != origin {
			relays++
		}
		for _, u := range fs.h.Neighbors(v) {
			if fs.received[u] {
				continue
			}
			if drop != nil && drop(v, u) {
				continue
			}
			fs.received[u] = true
			fs.reached = append(fs.reached, u)
			if fs.inGate[u] {
				fs.queue = append(fs.queue, u)
			}
		}
	}
	for _, u := range fs.reached {
		fs.received[u] = false
	}
	for _, u := range gate {
		fs.inGate[u] = false
	}
	return fs.reached, relays
}

func (o *oracle) dropOn(decision int, kind FrameKind, round, origin int) func(from, to int) bool {
	if o.drop == nil {
		return nil
	}
	return func(from, to int) bool {
		return o.drop(decision, kind, round, origin, from, to)
	}
}

// Decide runs one strategy decision from the given per-vertex index weights.
// Each agent starts knowing only its own weight and the conflict graph;
// weights spread via the WB flood, leader declarations via LS floods, and
// determinations via LB floods, all subject to loss. The phase structure
// mirrors the agents' exactly: all leaders of a mini-round split from the
// post-election views before any determination lands, and determinations
// apply in ascending leader order (the priority rule).
func (o *oracle) Decide(weights []float64) (*oracleResult, error) {
	h := o.ext.H
	n := h.N()
	if len(weights) != n {
		return nil, fmt.Errorf("oracle: %d weights for %d vertices", len(weights), n)
	}
	dec := o.decisions
	o.decisions++

	for v := 0; v < n; v++ {
		o.views[v].Reset(weights[v])
	}

	res := &oracleResult{}

	// WB: every vertex floods its weight within 2r+1 hops.
	for v := 0; v < n; v++ {
		reached, relays := o.sim.run(v, o.balls.Ball2R[v], o.dropOn(dec, FrameWB, 0, v))
		res.Frames.WB.Originations++
		res.Frames.WB.Relays += relays
		for _, u := range reached {
			if u != v {
				o.views[u].LearnWeight(v, weights[v])
			}
		}
	}

	maxRounds := o.d
	if maxRounds == 0 {
		maxRounds = n
	}
	var arBuf []int
	for tau := 0; tau < maxRounds; tau++ {
		// Leader self-selection from each agent's local view.
		var leaders []int
		for v := 0; v < n; v++ {
			if o.views[v].Self == candidate && o.views[v].SelfElect() {
				leaders = append(leaders, v)
			}
		}
		if len(leaders) == 0 {
			break
		}

		// LS: declare leadership within 2r+1 hops (frames only; the
		// declaration carries no state the LB does not supersede).
		for _, v := range leaders {
			_, relays := o.sim.run(v, o.balls.Ball2R[v], o.dropOn(dec, FrameLS, tau, v))
			res.Frames.LS.Originations++
			res.Frames.LS.Relays += relays
		}

		// Every leader splits from the post-election view snapshot — no
		// determination of this round has landed yet, matching the agents'
		// split phase barrier.
		type determination struct {
			leader          int
			winners, losers []int
		}
		dets := make([]determination, 0, len(leaders))
		for _, v := range leaders {
			arBuf = o.views[v].Candidates(o.balls.BallR[v], arBuf)
			winners, losers, err := localSplit(h, o.solver, arBuf, func(u int) float64 { return weights[u] })
			if err != nil {
				return nil, fmt.Errorf("oracle: leader %d: %w", v, err)
			}
			dets = append(dets, determination{leader: v, winners: winners, losers: losers})
		}

		// LB: flood each determination within 3r+2 hops and apply it to
		// the receivers, ascending leader order realizing the priority
		// rule.
		for _, det := range dets {
			reached, relays := o.sim.run(det.leader, o.balls.Ball3R1[det.leader], o.dropOn(dec, FrameLB, tau, det.leader))
			res.Frames.LB.Originations++
			res.Frames.LB.Relays += relays
			for _, x := range reached {
				o.views[x].Apply(h, tau, det.leader, det.winners, det.losers)
			}
		}

		res.MiniRounds++
		undecided := 0
		for v := 0; v < n; v++ {
			if o.views[v].Self == candidate {
				undecided++
			}
		}
		res.Undetermined = undecided
		if undecided == 0 {
			res.Converged = true
			break
		}
	}

	for v := 0; v < n; v++ {
		if o.views[v].Self == winner {
			res.Winners = append(res.Winners, v)
		}
	}
	res.Independent = h.IsIndependent(res.Winners)
	if o.drop == nil && !res.Independent {
		return nil, errors.New("oracle: internal error: lossless winners are not independent")
	}
	return res, nil
}

func TestOracleLosslessDecisionIsIndependentAndConverges(t *testing.T) {
	ext := testExt(t, 30, 3, 1, "random")
	o, err := newOracle(oracleConfig{Ext: ext, R: 2, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Decide(testWeights(ext, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) == 0 {
		t.Fatal("no winners")
	}
	if !res.Independent {
		t.Fatal("lossless winners not independent")
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d mini-rounds", res.MiniRounds)
	}
	if res.Frames.Total() == 0 {
		t.Fatal("no frames accounted")
	}
	// Per-kind attribution: every vertex originates one WB flood, every
	// mini-round's leaders originate LS and LB floods.
	if res.Frames.WB.Originations != ext.K() {
		t.Fatalf("WB originations = %d, want %d", res.Frames.WB.Originations, ext.K())
	}
	if res.Frames.LS.Originations == 0 || res.Frames.LB.Originations == 0 {
		t.Fatalf("missing LS/LB originations: %+v", res.Frames)
	}
	if res.Frames.LS.Originations != res.Frames.LB.Originations {
		t.Fatalf("LS and LB originations differ: %+v", res.Frames)
	}
	if res.Frames.WB.Relays == 0 {
		t.Fatal("lossless WB flood produced no relays")
	}
}

func TestOracleDeterministicGivenLossSeed(t *testing.T) {
	ext := testExt(t, 25, 3, 2, "random")
	w := testWeights(ext, 3)
	mk := func() *oracleResult {
		o, err := newOracle(oracleConfig{Ext: ext, R: 2, D: 6, DropProb: 0.3, LossSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Decide(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Frames != b.Frames || len(a.Winners) != len(b.Winners) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Winners {
		if a.Winners[i] != b.Winners[i] {
			t.Fatalf("winner mismatch at %d", i)
		}
	}
}

func TestOracleLossReducesDeliveredFrames(t *testing.T) {
	ext := testExt(t, 30, 3, 3, "random")
	w := testWeights(ext, 4)
	frames := func(drop float64) int {
		o, err := newOracle(oracleConfig{Ext: ext, R: 2, D: 6, DropProb: drop, LossSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Decide(w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Frames.Total()
	}
	// Heavy loss prunes flood relays, so far fewer frames are transmitted.
	if f0, f9 := frames(0), frames(0.9); f9 >= f0 {
		t.Fatalf("frames did not drop under loss: %d (p=0) vs %d (p=0.9)", f0, f9)
	}
}

func TestOracleConfigValidation(t *testing.T) {
	ext := testExt(t, 6, 2, 4, "random")
	if _, err := newOracle(oracleConfig{}); err == nil {
		t.Fatal("nil Ext accepted")
	}
	if _, err := newOracle(oracleConfig{Ext: ext, R: -1}); err == nil {
		t.Fatal("negative r accepted")
	}
	if _, err := newOracle(oracleConfig{Ext: ext, D: -1}); err == nil {
		t.Fatal("negative D accepted")
	}
	if _, err := newOracle(oracleConfig{Ext: ext, DropProb: 1}); err == nil {
		t.Fatal("DropProb 1 accepted")
	}
	o, err := newOracle(oracleConfig{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Decide([]float64{1}); err == nil {
		t.Fatal("wrong weight count accepted")
	}
}
