package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/mwis"
)

// DecideStats is a Decider's cumulative accounting: how boundaries were
// served (full decisions vs weight-epoch skips), how its per-leader cache
// performed, and the protocol communication totals of the full decisions
// actually run. Epoch-skipped boundaries add nothing to the communication
// totals — an unchanged weight vector means no fresh weights exist to
// broadcast, so the distributed protocol performs no work.
type DecideStats struct {
	// FullDecides counts decisions that ran the WB step and mini-round loop.
	FullDecides int64
	// EpochSkips counts decisions served from the cached previous Result
	// because the weight vector (and previous-strategy set) was unchanged.
	EpochSkips int64
	// LeaderSkips, SensitivitySkips, MemoStructHits and MemoMisses classify
	// the per-leader cache lookups of full decisions (one per LocalLeader
	// per mini-round). A leader skip replayed the cached winner/loser split
	// because the leader's candidate weights compared exactly equal to the
	// anchor solve's, which is valid for any deterministic solver. A
	// sensitivity skip replayed the split although the weights drifted: the
	// drift's L1 norm stayed strictly below the anchor solve's
	// comparison-slack certificate (mwis.Workspace.TrackSlack), which proves
	// a fresh solve would retrace the identical search. A structure hit
	// re-ran the solver over the leader's prepared ball; a miss prepared the
	// ball anew first. None of the four can change an output, only skip
	// recomputing it, and all four are decided from weights the Decider
	// holds, never from a caller's change hints.
	LeaderSkips      int64
	SensitivitySkips int64
	MemoStructHits   int64
	MemoMisses       int64
	// BudgetStops counts the local solves among those re-solves whose
	// search stopped at its node budget (mwis.Workspace.BudgetStop), so
	// that the leader applied an incumbent or greedy set rather than a
	// proven local optimum.
	BudgetStops int64
	// Communication totals summed over full decisions (the same quantities
	// Result.Stats reports per decision).
	MiniRounds         int64
	WeightBroadcasts   int64
	LeaderDeclarations int64
	LocalBroadcasts    int64
	MiniTimeslots      int64
}

// Decisions returns the total boundaries served (full + skipped).
func (s DecideStats) Decisions() int64 { return s.FullDecides + s.EpochSkips }

// LeaderResolves returns the leader lookups that actually ran a local MWIS
// search (structure hits + misses) — the quantity the drift-bounded decision
// plane exists to shrink.
func (s DecideStats) LeaderResolves() int64 { return s.MemoStructHits + s.MemoMisses }

// MemoHitRate returns the fraction of per-leader lookups that reused cached
// work at any tier (split replay or prepared structure), or 0 before any
// lookup.
func (s DecideStats) MemoHitRate() float64 {
	lookups := s.LeaderSkips + s.SensitivitySkips + s.MemoStructHits + s.MemoMisses
	if lookups == 0 {
		return 0
	}
	return float64(lookups-s.MemoMisses) / float64(lookups)
}

// Sub returns the counter deltas s − prev (for periodic publication).
func (s DecideStats) Sub(prev DecideStats) DecideStats {
	return DecideStats{
		FullDecides:        s.FullDecides - prev.FullDecides,
		EpochSkips:         s.EpochSkips - prev.EpochSkips,
		LeaderSkips:        s.LeaderSkips - prev.LeaderSkips,
		SensitivitySkips:   s.SensitivitySkips - prev.SensitivitySkips,
		MemoStructHits:     s.MemoStructHits - prev.MemoStructHits,
		MemoMisses:         s.MemoMisses - prev.MemoMisses,
		BudgetStops:        s.BudgetStops - prev.BudgetStops,
		MiniRounds:         s.MiniRounds - prev.MiniRounds,
		WeightBroadcasts:   s.WeightBroadcasts - prev.WeightBroadcasts,
		LeaderDeclarations: s.LeaderDeclarations - prev.LeaderDeclarations,
		LocalBroadcasts:    s.LocalBroadcasts - prev.LocalBroadcasts,
		MiniTimeslots:      s.MiniTimeslots - prev.MiniTimeslots,
	}
}

// DecideTrace is the per-boundary decision-path record a Decider fills for
// its attached tracer: which path served the boundary and where the wall
// time went. The phase nanoseconds partition a full decide — BroadcastNS
// (decide setup: the epoch-cache check, result allocation, the WB step's
// sender count and the weight validation; relays are not walked, since
// MessagesPerVertex derives them when read), ElectionNS (keeping the rank
// order, then leader election across mini-rounds), LocalMWISNS (local
// solves including per-leader cache lookups and winner/loser application),
// FinalizeNS (winner collection, independence verification, strategy
// construction, the broadcast record, and the epoch-cache update) — and
// are all zero on an epoch skip. The windows are contiguous from the
// decide's start, so their sum accounts for all of TotalNS except the
// trace bookkeeping itself. Timing is wall-clock observation only:
// tracing never touches the decision inputs, so traced and untraced
// trajectories are bit-identical.
type DecideTrace struct {
	// StartUnixNS is the decide's start time (unix nanoseconds).
	StartUnixNS int64
	// EpochSkip marks a boundary served from the cached previous Result.
	EpochSkip bool
	// Phase wall-clock nanoseconds (see above).
	BroadcastNS, ElectionNS, LocalMWISNS, FinalizeNS, TotalNS int64
	// MiniRounds is the number of protocol mini-rounds run (0 on a skip).
	MiniRounds int
	// Per-leader cache lookup deltas of this decide (see DecideStats).
	LeaderSkips, SensitivitySkips, MemoStructHits, MemoMisses int64
}

// PhaseNS returns the sum of the four phase timers — the portion of
// TotalNS the trace accounts for explicitly.
func (t *DecideTrace) PhaseNS() int64 {
	return t.BroadcastNS + t.ElectionNS + t.LocalMWISNS + t.FinalizeNS
}

// memoEntry is one leader's cached local MWIS. The structure layer is the
// candidate set cand and pre, the weight-independent preparation of the
// ball it induces (adjacency bitsets and clique partition): a non-empty
// cand always describes pre, weights regardless. The result layer, when
// valid, is the anchor the last solve over pre ran on: its weights w, its
// winner/loser split and the comparison-slack certificate it reported (0
// for every solver but Hybrid). A replay is exact in two regimes: when the
// candidate weights equal the anchor's bit-for-bit (any deterministic
// solver returns the same set on the same inputs), and when their L1 drift
// from the anchor stays strictly below slack (the certificate proves the
// branch-and-bound would retrace the identical traversal; see
// mwis.Workspace.TrackSlack). Neither layer can change an output, only
// skip recomputing it. Anchors are never advanced by a skip: drift is
// always measured against the weights the cached split was actually
// solved under.
type memoEntry struct {
	valid   bool
	slack   float64
	cand    []int
	w       []float64
	winners []int
	losers  []int
	pre     mwis.Prepared
}

// decideScratch is the per-decide mutable state a full decision needs: the
// MWIS workspace and every per-vertex buffer.
// It carries no decision history — everything in it is (re)written before
// use — so any decider over the same runtime can borrow any scratch.
// The vertex statuses live in two bitsets, cand (the Candidates) and won
// (the Winners); a vertex in neither is a LocalLeader or a Loser.
// Invariants between decides: inIS is all-false (localDecision clears the
// bits it sets) and leaderBits all-zero (selectLeaders clears the bits it
// reads out).
type decideScratch struct {
	ws         mwis.Workspace
	moved      []int // rankOrder's merge buffer
	leaders    []int
	declared   []int     // every leader of the decide, in declaration order
	roundW     []float64 // WeightByMiniRound, copied out at finalize
	roundL     []int     // LeadersByMiniRound, copied out at finalize
	ar         []int
	w          []float64
	inIS       []bool
	cand       []uint64
	won        []uint64
	union      []uint64 // selectLeaders' running union of (2r+1)-balls
	leaderBits []uint64
}

// size grows the per-vertex buffers to n vertices (moved to capacity n, as
// a decide with no previous Result moves every vertex) and the bitsets to
// words words, reusing capacity. Fresh inIS and leaderBits storage is
// zero, preserving their invariants.
func (sc *decideScratch) size(n, words int) {
	if cap(sc.inIS) < n {
		sc.inIS = make([]bool, n)
	}
	sc.inIS = sc.inIS[:n]
	if cap(sc.moved) < n {
		sc.moved = make([]int, 0, n)
	}
	for _, b := range []*[]uint64{&sc.cand, &sc.won, &sc.union, &sc.leaderBits} {
		if cap(*b) < words {
			*b = make([]uint64, words)
		}
		*b = (*b)[:words]
	}
}

// startCandidates makes all n vertices Candidates and none a Winner.
func (sc *decideScratch) startCandidates(n int) {
	for i := range sc.cand {
		sc.cand[i] = ^uint64(0)
	}
	if n%64 != 0 {
		sc.cand[len(sc.cand)-1] = 1<<(n%64) - 1
	}
	clear(sc.won)
}

// DecideArena is a shared pool of decide scratch state for instances that
// decide over the same topology (deciders built from one engine.ArtifactCache
// Runtime): each full decision borrows one scratch for its duration and
// returns it, so N instances batching their boundary decides through the
// arena warm one set of buffers instead of N. The pool is safe for
// concurrent use; per-decider state (the leader memo and epoch cache) never
// enters it, so sharing an arena cannot couple two deciders' outputs. Skip
// paths (epoch skips, and boundaries resolved entirely from the epoch
// cache) never borrow.
type DecideArena struct {
	pool sync.Pool
}

// NewDecideArena returns an empty shared scratch arena.
func NewDecideArena() *DecideArena {
	a := &DecideArena{}
	a.pool.New = func() any { return new(decideScratch) }
	return a
}

func (a *DecideArena) get() *decideScratch   { return a.pool.Get().(*decideScratch) }
func (a *DecideArena) put(sc *decideScratch) { a.pool.Put(sc) }

// Decider executes strategy decisions over one Runtime. It is the one
// implementation of the decision (Algorithm 3): Fig. 6, the ablations,
// queueing and every hosted instance decide through it. It keeps
// per-consumer state alive across decisions:
//
//   - scratch buffers (status bitsets, leader lists, candidate sets) and an
//     mwis.Workspace, so a steady-state full decision allocates only its
//     published Result (optionally borrowed per decide from a shared
//     DecideArena);
//   - a weight-epoch cache: when the weight vector and previous-strategy
//     set equal the previous call's, the cached Result is returned without
//     running the protocol (the distributed system would broadcast no
//     fresh weights and re-derive the identical strategy);
//   - an exact per-leader cache (one entry per vertex, bounded) with a
//     drift sensitivity margin: before solving MWIS(A_r(v)) the decider
//     compares the leader's candidate weights with the anchor solve's and
//     replays the cached split when they are equal (leader skip) or drifted
//     within the anchor's comparison-slack certificate (sensitivity skip);
//     otherwise it runs the solver once over the leader's prepared ball
//     (mwis.SolveOn), preparing it anew only when the candidate set changed.
//
// Every skip is decided from weights the decider holds, never from a
// caller's change hints, so its exactness does not depend on its caller.
//
// It also keeps every vertex in rank order across decisions (weight
// descending, ties toward the lower id), re-sorting only the vertices whose
// weight moved, so each mini-round elects its leaders by one walk over the
// candidates and their ball bitsets.
//
// All layers are exact — same inputs produce bit-identical Results, Stats
// included, to a from-scratch decision on any trajectory (the tests keep
// that decision as their oracle; see TestDeciderMatchesReferenceRandomized)
// — so a fresh Decider used once is the one-shot decide. A Decider is
// confined to one goroutine; create one per consumer (the slot kernel
// embeds one per Loop). Results it returns are never mutated afterwards,
// and an epoch-skipped boundary returns the same *Result as the decision
// it replays.
type Decider struct {
	rt      *Runtime
	scratch decideScratch
	shared  *DecideArena // when non-nil, full decides borrow scratch here
	memo    []memoEntry

	lastW    []float64
	lastPrev []int
	lastRes  *Result

	// order holds every vertex in rank order under lastW; it is valid
	// while lastRes is non-nil and rebuilt from scratch otherwise.
	order []int

	stats DecideStats

	// tracer, when non-nil, receives a DecideTrace after every decide. The
	// disabled path costs one nil check per decide — no clock reads, no
	// allocations. trace is the reused scratch record; the callback must
	// copy what it keeps.
	tracer func(*DecideTrace)
	trace  DecideTrace
	// finalizeStart is where decideFull left the finalize window open;
	// decide closes it after the epoch-cache update so the four phase
	// windows tile TotalNS.
	finalizeStart time.Time
}

// NewDecider returns a fresh Decider over this runtime. The heavy topology
// precomputation lives in the Runtime and is shared; the Decider only adds
// the per-consumer mutable state.
func (rt *Runtime) NewDecider() *Decider {
	n := rt.ext.H.N()
	d := &Decider{
		rt:    rt,
		memo:  make([]memoEntry, n),
		order: make([]int, n),
	}
	d.scratch.size(n, rt.words)
	return d
}

// Runtime returns the shared runtime the decider decides over.
func (d *Decider) Runtime() *Runtime { return d.rt }

// Stats returns the decider's cumulative accounting.
func (d *Decider) Stats() DecideStats { return d.stats }

// SetArena attaches (or with nil detaches) a shared scratch arena: full
// decides borrow their scratch from it instead of the decider's own. Only
// deciders over runtimes of the same topology family should share one (the
// serving registry shares per cached Runtime). Must not be called during a
// decide.
func (d *Decider) SetArena(a *DecideArena) { d.shared = a }

// SetTracer attaches (or with nil detaches) a decision-path tracer. The
// callback runs synchronously on the deciding goroutine after every
// successful decide with a scratch *DecideTrace the decider reuses — copy
// out anything retained past the call. Tracing observes wall time only;
// it cannot change any decision output.
func (d *Decider) SetTracer(fn func(*DecideTrace)) { d.tracer = fn }

// DecideEpoch is Decide under the slot kernel's decision-plane signature
// (core.DecisionPlane). Both change hints are ignored: the epoch skip and
// every per-leader replay are decided by comparing weights the Decider
// holds, so a caller that under-reports its changes cannot make a decision
// stale. The parameters stay because the benchmark module, stackbench,
// compiles against this signature.
func (d *Decider) DecideEpoch(weights []float64, prevPlayed []int, _ bool, _ *changeset.Set) (*Result, error) {
	return d.Decide(weights, prevPlayed)
}

// Decide runs one strategy decision (the strategy-decision part of
// Algorithm 2): a WB step for the vertices played in the previous round,
// then up to D mini-rounds of Algorithm 3 under the given per-vertex index
// weights. prevPlayed lists the vertex ids included in the previous
// round's strategy (they are the only vertices with fresh weights to
// broadcast); pass nil on the first round. The inputs are compared against
// the previous call's to detect an unchanged weight epoch.
func (d *Decider) Decide(weights []float64, prevPlayed []int) (*Result, error) {
	h := d.rt.ext.H
	n := h.N()
	if len(weights) != n {
		return nil, fmt.Errorf("protocol: %d weights for %d vertices", len(weights), n)
	}
	var t0 time.Time
	if d.tracer != nil {
		t0 = time.Now()
	}
	if d.lastRes != nil && slices.Equal(prevPlayed, d.lastPrev) && slices.Equal(weights, d.lastW) {
		d.stats.EpochSkips++
		if d.tracer != nil {
			d.trace = DecideTrace{
				StartUnixNS: t0.UnixNano(),
				EpochSkip:   true,
				TotalNS:     time.Since(t0).Nanoseconds(),
			}
			d.tracer(&d.trace)
		}
		return d.lastRes, nil
	}

	var memoBefore DecideStats
	if d.tracer != nil {
		memoBefore = d.stats
	}
	res, err := d.decideFull(weights, prevPlayed, t0)
	if err != nil {
		d.lastRes = nil
		return nil, err
	}
	d.lastW = append(d.lastW[:0], weights...)
	d.lastPrev = append(d.lastPrev[:0], prevPlayed...)
	d.lastRes = res
	if d.tracer != nil {
		// One clock read closes both the finalize window and the total, so
		// the four phase windows tile TotalNS exactly.
		now := time.Now()
		d.trace.FinalizeNS = now.Sub(d.finalizeStart).Nanoseconds()
		d.trace.StartUnixNS = t0.UnixNano()
		d.trace.EpochSkip = false
		d.trace.MiniRounds = res.MiniRounds
		d.trace.LeaderSkips = d.stats.LeaderSkips - memoBefore.LeaderSkips
		d.trace.SensitivitySkips = d.stats.SensitivitySkips - memoBefore.SensitivitySkips
		d.trace.MemoStructHits = d.stats.MemoStructHits - memoBefore.MemoStructHits
		d.trace.MemoMisses = d.stats.MemoMisses - memoBefore.MemoMisses
		d.trace.TotalNS = now.Sub(t0).Nanoseconds()
		d.tracer(&d.trace)
	}
	return res, nil
}

// decideFull runs the WB step and the mini-round loop over the persistent
// buffers; any observable divergence from the from-scratch oracle is a bug
// the differential suites exist to catch. The winner-weight series and all
// Stats are always recomputed from the current weight vector — replayed
// leader splits contribute current weights, never cached ones.
func (d *Decider) decideFull(weights []float64, prevPlayed []int, t0 time.Time) (*Result, error) {
	rt := d.rt
	n := rt.ext.H.N()
	sc := &d.scratch
	if d.shared != nil {
		sc = d.shared.get()
		defer d.shared.put(sc)
		sc.size(n, rt.words)
	}
	traced := d.tracer != nil
	var phaseStart time.Time
	if traced {
		d.trace.BroadcastNS, d.trace.ElectionNS = 0, 0
		d.trace.LocalMWISNS, d.trace.FinalizeNS = 0, 0
		// The broadcast window opens at the decide's own start so the
		// epoch-cache comparison and result allocation are accounted for.
		phaseStart = t0
	}
	res := &Result{}

	// Weight broadcast (WB). Only the senders are recorded: the relays
	// they cost are derived from the record when MessagesPerVertex is read.
	for _, v := range prevPlayed {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("protocol: played vertex %d out of range [0,%d)", v, n)
		}
	}
	res.Stats.WeightBroadcasts = len(prevPlayed)
	width := 2*rt.r + 1
	res.Stats.MiniTimeslots += width * width
	// The rank order needs a total order on the weights, and NaN compares
	// false both ways.
	for v, x := range weights {
		if math.IsNaN(x) {
			return nil, fmt.Errorf("protocol: weight of vertex %d is NaN", v)
		}
	}
	if traced {
		now := time.Now()
		d.trace.BroadcastNS = now.Sub(phaseStart).Nanoseconds()
		phaseStart = now
	}

	// Mini-round loop (Algorithm 3).
	d.rankOrder(sc, weights)
	sc.startCandidates(n)
	cand, won := sc.cand, sc.won
	candidates := n
	winnerCount := 0
	totalWinnerWeight := 0.0
	sc.declared = sc.declared[:0]
	sc.roundW, sc.roundL = sc.roundW[:0], sc.roundL[:0]
	maxRounds := rt.d
	if maxRounds == 0 {
		maxRounds = n
	}
	for tau := 0; tau < maxRounds && candidates > 0; tau++ {
		leaders := d.selectLeaders(sc, candidates)
		if len(leaders) == 0 {
			if traced {
				now := time.Now()
				d.trace.ElectionNS += now.Sub(phaseStart).Nanoseconds()
				phaseStart = now
			}
			break
		}
		for _, v := range leaders {
			cand[v/64] &^= 1 << (uint(v) % 64)
		}
		res.Stats.LeaderDeclarations += len(leaders)
		sc.declared = append(sc.declared, leaders...)
		if traced {
			now := time.Now()
			d.trace.ElectionNS += now.Sub(phaseStart).Nanoseconds()
			phaseStart = now
		}
		for _, v := range leaders {
			winners, losers, err := d.localDecision(sc, v, weights)
			if err != nil {
				return nil, err
			}
			for _, u := range winners {
				cand[u/64] &^= 1 << (uint(u) % 64)
				won[u/64] |= 1 << (uint(u) % 64)
				totalWinnerWeight += weights[u]
			}
			for _, u := range losers {
				cand[u/64] &^= 1 << (uint(u) % 64)
			}
			winnerCount += len(winners)
			candidates -= len(winners) + len(losers)
			// Every Candidate neighbor of a fresh Winner becomes a Loser.
			for _, u := range winners {
				for wi, word := range rt.adjBits[u] {
					candidates -= bits.OnesCount64(cand[wi] & word)
					cand[wi] &^= word
				}
			}
			res.Stats.LocalBroadcasts++
		}
		res.MiniRounds++
		res.Stats.MiniTimeslots += (2*rt.r + 1) + (3*rt.r + 2)
		sc.roundW = append(sc.roundW, totalWinnerWeight)
		sc.roundL = append(sc.roundL, len(leaders))
		if traced {
			now := time.Now()
			d.trace.LocalMWISNS += now.Sub(phaseStart).Nanoseconds()
			phaseStart = now
		}
	}
	res.Converged = candidates == 0
	// The series stay nil without a mini-round, as the oracle leaves them.
	if res.MiniRounds > 0 {
		res.WeightByMiniRound = slices.Clone(sc.roundW)
		res.LeadersByMiniRound = slices.Clone(sc.roundL)
	}

	// Winners are collected in ascending id.
	if winnerCount > 0 {
		res.Winners = make([]int, 0, winnerCount)
		for wi, word := range won {
			for ; word != 0; word &= word - 1 {
				res.Winners = append(res.Winners, wi*64+bits.TrailingZeros64(word))
			}
		}
	}
	if !d.winnersIndependent(won, res.Winners) {
		return nil, errors.New("protocol: internal error: winners are not independent")
	}
	strategy, err := rt.ext.StrategyFromVertices(res.Winners)
	if err != nil {
		return nil, fmt.Errorf("protocol: winners to strategy: %w", err)
	}
	res.Strategy = strategy
	p := len(prevPlayed)
	sent := make([]int, p+len(sc.declared))
	copy(sent, prevPlayed)
	copy(sent[p:], sc.declared)
	res.Stats.sent = broadcasts{rt: rt, played: sent[:p:p], leaders: sent[p:]}
	if traced {
		// Leave the finalize window open: decide closes it after the
		// stats accumulation below and its epoch-cache update.
		d.finalizeStart = phaseStart
	}

	d.stats.FullDecides++
	d.stats.MiniRounds += int64(res.MiniRounds)
	d.stats.WeightBroadcasts += int64(res.Stats.WeightBroadcasts)
	d.stats.LeaderDeclarations += int64(res.Stats.LeaderDeclarations)
	d.stats.LocalBroadcasts += int64(res.Stats.LocalBroadcasts)
	d.stats.MiniTimeslots += int64(res.Stats.MiniTimeslots)
	return res, nil
}

// rankOrder brings d.order to the rank order of weights: weight descending,
// ties toward the lower id, compared as float values (so −0 ties +0) —
// exactly selectLeaders' comparison. With a previous Result the order holds
// under lastW, and the vertices whose weight still equals lastW keep their
// relative order, so only the others are re-sorted and merged back in.
// Without one (the first decide, or after a failed one) every vertex is
// re-sorted.
func (d *Decider) rankOrder(sc *decideScratch, weights []float64) {
	moved, kept := sc.moved[:0], d.order[:0]
	if d.lastRes == nil {
		for v := range weights {
			moved = append(moved, v)
		}
	} else {
		for _, v := range d.order {
			if weights[v] != d.lastW[v] {
				moved = append(moved, v)
			} else {
				kept = append(kept, v)
			}
		}
	}
	slices.SortFunc(moved, func(a, b int) int {
		if wa, wb := weights[a], weights[b]; wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return a - b
	})
	// Merge from the back: kept is compacted to the front of d.order, so
	// every slot written lies past the kept entries still to be read.
	i, j := len(kept)-1, len(moved)-1
	for k := len(d.order) - 1; j >= 0; k-- {
		v := moved[j]
		if i >= 0 {
			if u := kept[i]; weights[v] > weights[u] || (weights[v] == weights[u] && v < u) {
				d.order[k] = u
				i--
				continue
			}
		}
		d.order[k] = v
		j--
	}
	sc.moved = moved
}

// selectLeaders returns, in ascending id, the Candidates whose (weight, -id)
// is lexicographic maximum among all Candidates within their (2r+1)-hop
// neighborhood. It walks the Candidates in rank order and ORs each one's
// (2r+1)-ball row into a running union: a Candidate leads iff its own bit
// is still clear when it is reached, and since hop balls are symmetric
// that bit is set exactly when a higher-ranked Candidate lies within 2r+1
// hops. The walk stops once the union covers every Candidate, as no later
// one can lead. The strict id tie-break guarantees no two leaders are
// within 2r+1 hops even under equal weights, which keeps the leaders'
// r-balls disjoint and the union of their local MWIS results independent.
// The returned slice is the scratch leader buffer: it is only valid until
// the next call.
func (d *Decider) selectLeaders(sc *decideScratch, candidates int) []int {
	cand, union, leaderBits := sc.cand, sc.union, sc.leaderBits
	clear(union)
	uncovered := candidates
	for _, v := range d.order {
		if uncovered == 0 {
			break
		}
		bit := uint64(1) << (uint(v) % 64)
		if cand[v/64]&bit == 0 {
			continue
		}
		if union[v/64]&bit == 0 {
			leaderBits[v/64] |= bit
		}
		for wi, word := range d.rt.ball2R1[v] {
			uncovered -= bits.OnesCount64(word &^ union[wi] & cand[wi])
			union[wi] |= word
		}
	}
	leaders := sc.leaders[:0]
	for wi, word := range leaderBits {
		for ; word != 0; word &= word - 1 {
			leaders = append(leaders, wi*64+bits.TrailingZeros64(word))
		}
		leaderBits[wi] = 0
	}
	sc.leaders = leaders
	return leaders
}

// localDecision computes the winner/loser split of MWIS(A_r(v)) for
// LocalLeader v, consulting the per-leader cache first: an anchored entry
// whose candidate set matches replays its split outright when the weights
// compare exactly equal, or when their L1 drift stays strictly below the
// anchor's slack certificate. Otherwise it solves once over the leader's
// prepared ball, preparing it anew when the candidate set changed, and
// re-anchors the entry.
func (d *Decider) localDecision(sc *decideScratch, v int, weights []float64) (winners, losers []int, err error) {
	// A_r(v): the Candidates of v's r-ball, and v itself.
	ar := sc.ar[:0]
	for wi, word := range d.rt.ballR[v] {
		word &= sc.cand[wi]
		if wi == v/64 {
			word |= 1 << (uint(v) % 64)
		}
		for ; word != 0; word &= word - 1 {
			ar = append(ar, wi*64+bits.TrailingZeros64(word))
		}
	}
	sc.ar = ar

	e := &d.memo[v]
	candMatch := slices.Equal(e.cand, ar)
	if e.valid && candMatch {
		// Measure the L1 drift against the anchor weights. Zero drift is an
		// exact replay; drift strictly below the certificate is a proven
		// replay. The scan exits as soon as the accumulated drift rules
		// both out.
		d1 := 0.0
		for i, u := range ar {
			d1 += math.Abs(weights[u] - e.w[i])
			if d1 > 0 && d1 >= e.slack {
				break
			}
		}
		if d1 == 0 {
			d.stats.LeaderSkips++
			return e.winners, e.losers, nil
		}
		if d1 < e.slack {
			d.stats.SensitivitySkips++
			return e.winners, e.losers, nil
		}
	}

	// Gather the candidate weights (vertex i of the local instance is
	// ar[i]: ar is ascending — read off the ball row in bit order — which
	// is exactly the vertex order PrepareInduced produces).
	w := sc.w[:0]
	for _, u := range ar {
		w = append(w, weights[u])
	}
	sc.w = w

	// Solve over the leader's prepared ball, rebuilding it from the
	// adjacency rows only when the candidate set changed. A Hybrid solve
	// carries the slack certificate so the next lookups can skip under
	// bounded drift; certification never changes the result
	// (TestSlackTrackingDoesNotChangeResults).
	if candMatch {
		d.stats.MemoStructHits++
	} else {
		d.stats.MemoMisses++
		e.pre.PrepareInduced(d.rt.adjBits, ar, &sc.ws)
		e.cand = append(e.cand[:0], ar...)
		e.valid = false
	}
	sc.ws.TrackSlack = true
	localIS, err := mwis.SolveOn(d.rt.solver, &e.pre, w, &sc.ws)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: local MWIS at leader %d: %w", v, err)
	}
	if sc.ws.BudgetStop {
		d.stats.BudgetStops++
	}
	for _, li := range localIS {
		sc.inIS[ar[li]] = true
	}
	e.w = append(e.w[:0], w...)
	e.slack = sc.ws.Slack
	e.winners = e.winners[:0]
	e.losers = e.losers[:0]
	for _, u := range ar {
		if sc.inIS[u] {
			e.winners = append(e.winners, u)
		} else {
			e.losers = append(e.losers, u)
		}
	}
	for _, li := range localIS {
		sc.inIS[ar[li]] = false
	}
	e.valid = true
	return e.winners, e.losers, nil
}

// winnersIndependent verifies the output set against the runtime's
// adjacency bitsets: no winner may have a neighbor in won, the winners'
// bitset, which over all pairs is exactly graph.IsIndependent.
func (d *Decider) winnersIndependent(won []uint64, winners []int) bool {
	for _, v := range winners {
		for wi, word := range d.rt.adjBits[v] {
			if won[wi]&word != 0 {
				return false
			}
		}
	}
	return true
}
