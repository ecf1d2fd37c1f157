package protocol

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"multihopbandit/internal/mwis"
)

// This file keeps the from-scratch strategy decision that the Decider
// replaced in production, as the oracle the differential tests compare
// against (TestDeciderMatchesReferenceRandomized and its Fig. 6-scale and
// fuzzed companions). Its code is that of Runtime.Decide, selectLeaders,
// localDecision and their pooled scratch, verbatim except that the three
// functions were methods on the Runtime and now take it as their first
// argument, under reference names. Their doc comments lost the pointers to
// the Decider. Two edits followed when the Runtime kept its hop balls as
// bitsets only and the Decider stopped filling per-vertex message counts:
// the sorted ball lists the oracle reads come from the list-building BFS
// that New ran before (referenceRuntime), and referenceDecide returns its
// per-vertex relay counts next to its Result instead of inside its Stats.

// referenceRuntime is a Runtime plus its hop balls as sorted vertex lists,
// the form the oracle reads them in. Its list fields shadow the Runtime's
// bitset rows of the same names.
type referenceRuntime struct {
	*Runtime
	ballR   [][]int // J_{H,r}(v) per vertex
	ball2R1 [][]int // J_{H,2r+1}(v) per vertex
	ballLB  [][]int // J_{H,3r+2}(v) per vertex, the LB broadcast radius
}

// newReferenceRuntime builds rt's ball lists with the bounded BFS New ran
// when the Runtime kept them.
func newReferenceRuntime(rt *Runtime) *referenceRuntime {
	h := rt.ext.H
	n := h.N()
	r := rt.r
	ref := &referenceRuntime{
		Runtime: rt,
		ballR:   make([][]int, n),
		ball2R1: make([][]int, n),
		ballLB:  make([][]int, n),
	}
	// One bounded BFS to 3r+2 per vertex covers all three radii (the LB
	// radius is 3r+2, one hop past the paper's 3r+1, because the
	// winner-neighbor exclusion rule extends the ruled set to r+1 hops
	// around a leader). The dist/queue buffers are reused across vertices
	// to avoid n² map work.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	visited := make([]int, 0, n)
	for v := 0; v < n; v++ {
		dist[v] = 0
		queue = append(queue[:0], v)
		visited = append(visited[:0], v)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if dist[u] == 3*r+2 {
				continue
			}
			for _, w := range h.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
					visited = append(visited, w)
				}
			}
		}
		sort.Ints(visited)
		for _, u := range visited {
			d := dist[u]
			if d <= r {
				ref.ballR[v] = append(ref.ballR[v], u)
			}
			if d <= 2*r+1 {
				ref.ball2R1[v] = append(ref.ball2R1[v], u)
			}
			ref.ballLB[v] = append(ref.ballLB[v], u)
		}
		for _, u := range visited {
			dist[u] = -1
		}
	}
	return ref
}

// scratch holds the per-Decide working buffers. Pooling them cuts the
// per-decision allocation count roughly in half, which matters to the
// serving runtime where Decide runs tens of thousands of times per second;
// a scratch is private to one Decide call, so pooled reuse cannot change
// any output.
type scratch struct {
	status  []Status
	leaders []int
	ar      []int
	w       []float64
	inIS    []bool // indexed by original vertex id; cleared after each use
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grab resizes the scratch for an n-vertex graph, zeroing what Decide
// expects zeroed.
func (sc *scratch) grab(n int) {
	if cap(sc.status) < n {
		sc.status = make([]Status, n)
		sc.inIS = make([]bool, n)
	}
	sc.status = sc.status[:n]
	sc.inIS = sc.inIS[:n]
	for i := range sc.status {
		sc.status[i] = Candidate
	}
	// sc.inIS is cleared by localDecision after every use; a fresh
	// allocation above is already zero.
}

// referenceDecide runs one full strategy decision (the strategy-decision
// part of Algorithm 2): a WB step for the vertices played in the previous
// round, then up to D mini-rounds of Algorithm 3 under the given per-vertex
// index weights.
//
// prevPlayed lists the vertex ids included in the previous round's strategy
// (they are the only vertices with fresh weights to broadcast); pass nil on
// the first round.
//
// It rebuilds its working state from scratch on every call and is safe for
// concurrent use. Next to the Result it returns the per-vertex relay
// counts (WB + LS declarations + LB).
func referenceDecide(rt *referenceRuntime, weights []float64, prevPlayed []int) (*Result, []int, error) {
	h := rt.ext.H
	n := h.N()
	if len(weights) != n {
		return nil, nil, fmt.Errorf("protocol: %d weights for %d vertices", len(weights), n)
	}
	res := &Result{}
	messagesPerVertex := make([]int, n)

	// --- Weight broadcast (WB): each vertex of the previous strategy
	// floods its new weight within (2r+1) hops.
	for _, v := range prevPlayed {
		if v < 0 || v >= n {
			return nil, nil, fmt.Errorf("protocol: played vertex %d out of range [0,%d)", v, n)
		}
		res.Stats.WeightBroadcasts++
		for _, u := range rt.ball2R1[v] {
			messagesPerVertex[u]++
		}
	}
	width := 2*rt.r + 1
	res.Stats.MiniTimeslots += width * width // pipelined CDS broadcast bound

	// --- Mini-round loop (Algorithm 3).
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.grab(n)
	status := sc.status
	candidates := n
	totalWinnerWeight := 0.0
	maxRounds := rt.d
	if maxRounds == 0 {
		maxRounds = n // the paper's worst-case bound
	}
	for tau := 0; tau < maxRounds && candidates > 0; tau++ {
		leaders := referenceSelectLeaders(rt, weights, status, sc)
		if len(leaders) == 0 {
			// Cannot happen while candidates remain: the global maximum
			// among candidates is always a leader. Guard anyway.
			break
		}
		for _, v := range leaders {
			status[v] = LocalLeader
			res.Stats.LeaderDeclarations++
			// LS declaration floods the (2r+1)-hop neighborhood.
			for _, u := range rt.ball2R1[v] {
				messagesPerVertex[u]++
			}
		}
		for _, v := range leaders {
			winners, losers, err := referenceLocalDecision(rt, v, weights, status, sc)
			if err != nil {
				return nil, nil, err
			}
			for _, u := range winners {
				status[u] = Winner
				totalWinnerWeight += weights[u]
				candidates--
			}
			for _, u := range losers {
				status[u] = Loser
				candidates--
			}
			// Mirror the centralized PTAS removal semantics: every still
			// undecided neighbor of a fresh Winner becomes a Loser, even
			// when it lies outside A_r(v). The LB broadcast radius 3r+1
			// covers these vertices (winners are within r of the leader,
			// their neighbors within r+1), so they learn their status in
			// the same mini-round. Without this rule a later mini-round
			// could crown a Winner adjacent to an existing one.
			for _, u := range winners {
				for _, x := range rt.ext.H.Neighbors(u) {
					if status[x] == Candidate {
						status[x] = Loser
						candidates--
					}
				}
			}
			// LB: determinations flood the (3r+2)-hop neighborhood (one
			// hop past the paper's 3r+1 to cover the winner-neighbor
			// exclusions).
			res.Stats.LocalBroadcasts++
			for _, u := range rt.ballLB[v] {
				messagesPerVertex[u]++
			}
		}
		res.MiniRounds++
		res.Stats.MiniTimeslots += (2*rt.r + 1) + (3*rt.r + 2)
		res.WeightByMiniRound = append(res.WeightByMiniRound, totalWinnerWeight)
		res.LeadersByMiniRound = append(res.LeadersByMiniRound, len(leaders))
	}
	res.Converged = candidates == 0

	for v, st := range status {
		if st == Winner {
			res.Winners = append(res.Winners, v)
		}
	}
	sort.Ints(res.Winners)
	if !h.IsIndependent(res.Winners) {
		return nil, nil, errors.New("protocol: internal error: winners are not independent")
	}
	strategy, err := rt.ext.StrategyFromVertices(res.Winners)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol: winners to strategy: %w", err)
	}
	res.Strategy = strategy
	return res, messagesPerVertex, nil
}

// referenceSelectLeaders returns the Candidates whose (weight, -id) is
// lexicographic maximum among all Candidates within their (2r+1)-hop
// neighborhood. The strict id tie-break guarantees no two leaders are
// within 2r+1 hops even under equal weights, which keeps the leaders'
// r-balls disjoint and the union of their local MWIS results independent.
// The returned slice is scratch-backed: it is only valid until the next
// call.
func referenceSelectLeaders(rt *referenceRuntime, weights []float64, status []Status, sc *scratch) []int {
	leaders := sc.leaders[:0]
	for v, st := range status {
		if st != Candidate {
			continue
		}
		isLeader := true
		for _, u := range rt.ball2R1[v] {
			if u == v || status[u] != Candidate {
				continue
			}
			if weights[u] > weights[v] || (weights[u] == weights[v] && u < v) {
				isLeader = false
				break
			}
		}
		if isLeader {
			leaders = append(leaders, v)
		}
	}
	sc.leaders = leaders
	return leaders
}

// referenceLocalDecision computes MWIS(A_r(v)) for LocalLeader v over the
// Candidate vertices in its r-hop neighborhood (the leader itself counts —
// its status was just set to LocalLeader, which still makes it undecided)
// and splits A_r(v) into winners and losers.
func referenceLocalDecision(rt *referenceRuntime, v int, weights []float64, status []Status, sc *scratch) (winners, losers []int, err error) {
	ar := sc.ar[:0]
	for _, u := range rt.ballR[v] {
		if status[u] == Candidate || u == v {
			ar = append(ar, u)
		}
	}
	sc.ar = ar
	sub, origIDs := rt.ext.H.InducedSubgraph(ar)
	w := sc.w[:0]
	for _, u := range origIDs {
		w = append(w, weights[u])
	}
	sc.w = w
	localIS, err := rt.solver.Solve(mwis.Instance{G: sub, W: w})
	if err != nil && !errors.Is(err, mwis.ErrBudgetExceeded) {
		return nil, nil, fmt.Errorf("protocol: local MWIS at leader %d: %w", v, err)
	}
	for _, li := range localIS {
		sc.inIS[origIDs[li]] = true
	}
	for _, u := range ar {
		if sc.inIS[u] {
			winners = append(winners, u)
		} else {
			losers = append(losers, u)
		}
	}
	// Clear only the bits we set so the scratch stays zero for the next use.
	for _, li := range localIS {
		sc.inIS[origIDs[li]] = false
	}
	return winners, losers, nil
}
