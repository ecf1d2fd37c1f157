package mwis

import (
	"fmt"
	"slices"
)

// Workspace carries every buffer the solvers need, so hot loops that solve
// many small instances (the protocol decider: one local MWIS per LocalLeader
// per mini-round) can run allocation-free once the buffers are warm. A
// Workspace is not safe for concurrent use; the slices returned by
// SolveWorkspace, SolvePrepared and SolveOn alias it and are valid only
// until its next use.
//
// Each solver has one body, over a Prepared graph: greedyPrepared for
// Greedy, the search for Exact, SolvePrepared for Hybrid. SolveWorkspace
// prepares the instance's graph in ws (Greedy fills only the rows) and
// runs it, SolveOn runs it on a caller's preparation, and Solve runs
// SolveWorkspace on a pooled Workspace. The tests keep the allocating
// Greedy and Hybrid bodies these replaced as oracles
// (TestSolveWorkspaceMatchesSolve, TestSolvePreparedMatchesSolve).
type Workspace struct {
	// TrackSlack requests the replay-slack certificate from the next
	// Hybrid.SolvePrepared call, SolveOn's with a Hybrid included; Slack is
	// its result, and every other solve sets it to 0. When the budgeted
	// exact search completes, Slack is a margin S such that any weight
	// vector w' with Σ_v |w'_v − w_v| < S provably makes a from-scratch
	// solve return the identical set. S is the maximum of two independent
	// certificates:
	//
	//   - Traversal slack: the minimum margin, pre-scaled per comparison
	//     kind, over the weight-dependent comparisons the search executed
	//     (incumbent updates, clique-bound prunes at half weight, pivot
	//     choices). Drift below it flips none of them, so the search on w'
	//     runs the identical traversal — same incumbents, same prunes,
	//     same budget consumption — and returns the identical set. A search
	//     that built a clique cover past its first 8,192 nodes has none:
	//     the cover follows the whole weight order, which no recorded
	//     margin covers (see coverAfter).
	//
	//   - Uniqueness gap: the distance from the optimum to the
	//     second-best independent set, available only when the prepared
	//     instance's unpruned tree size fits the node budget, which
	//     guarantees the search exhausts under any weights. Drift below
	//     the gap keeps the returned set the unique optimum, and an
	//     exhaustive search returns a unique optimum regardless of
	//     traversal order. This certificate ignores pivot near-ties and
	//     prune near-misses entirely — those flips reshape the traversal
	//     but not the answer — which is what lets drifting-but-stable
	//     leaders skip resolves at a useful rate (the root package's
	//     TestDecideWorkGolden pins how often).
	//
	// Both margins are computed from floating-point sums, so S is their
	// maximum less a bound on the rounding error (16·(n+1)·ε·Σw, clamped
	// at 0): without it, a drift that turns two sets a few ulps apart
	// into a tie can read as strictly below the margin it closes.
	//
	// A tie voids both sides (traversal slack collapses on any tied
	// comparison; an exact co-optimum collapses the gap), so certified
	// replays remain bit-identical to from-scratch solves. Greedy paths
	// (instances above MaxExactNodes) and budget-exceeded searches report
	// 0: their outputs depend on orderings neither certificate covers. A
	// completed search on a trivial instance may report +Inf (every drift
	// replays).
	TrackSlack bool
	Slack      float64

	// BudgetStop reports whether the last SolvePrepared or SolveOn call's
	// search stopped at its node budget, so that its set is the incumbent
	// or the greedy set rather than a proven optimum. It is false when the
	// search completed and when no search ran (instances above
	// MaxExactNodes, Greedy, invalid inputs).
	BudgetStop bool

	// greedy state
	order   []int
	removed []bool
	gout    []int
	// exact branch-and-bound state; the rank order lives in order, which
	// the search leaves free
	st        search
	pre       Prepared  // the SolveWorkspace paths' preparation
	rank      []int     // vertex id → rank
	rw        []float64 // weight per rank
	arena     bitset
	depthBufs [][3]bitset
	eout      []int
	// Prepared.PrepareInduced state: the ball as a mask over the parent's
	// ids, all-zero between calls, and each ball vertex's local id
	ball  bitset
	local []int
	// clique-partition state: each vertex's degree, the counting sort's
	// run starts (the scan order itself lives in order), and the assigned
	// and common-neighbour sets
	degree []int
	start  []int
	cover  bitset
}

// growInts resizes *s to length n, reusing capacity.
func growInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

// growBitset resizes *s to length n, reusing capacity.
func growBitset(s *bitset, n int) bitset {
	if cap(*s) < n {
		*s = make(bitset, n)
	}
	*s = (*s)[:n]
	return *s
}

// growDepth resizes *s to length n, reusing capacity.
func growDepth(s *[][3]bitset, n int) [][3]bitset {
	if cap(*s) < n {
		*s = make([][3]bitset, n)
	}
	*s = (*s)[:n]
	return *s
}

// growFloats resizes *s to length n, reusing capacity.
func growFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// growBools resizes *s to length n, reusing capacity. Contents are zeroed.
func growBools(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
		return (*s)[:n]
	}
	*s = (*s)[:n]
	for i := range *s {
		(*s)[i] = false
	}
	return *s
}

// SortByWeight orders vertex ids by decreasing weight, ties toward the
// lower id, weights compared as floats (so −0 ties +0): Greedy.Solve's
// comparator and the protocol decider's rank order, which is a total order
// on ids with non-NaN weights, so every sorting algorithm yields the same
// permutation. Up to 64 ids, the balls the one-word search body takes and
// the vertices whose weight moved in a small network's decide, an inline
// insertion sort makes no function call. Longer orders, the two-word and
// slice bodies' balls up to Exact over all of H, keep slices.SortFunc:
// insertion's cost grows with the square of the length.
func SortByWeight(order []int, w []float64) {
	if len(order) <= 64 {
		for i := 1; i < len(order); i++ {
			v := order[i]
			wv := w[v]
			j := i
			for ; j > 0; j-- {
				u := order[j-1]
				if w[u] > wv || w[u] == wv && u < v {
					break
				}
				order[j] = u
			}
			order[j] = v
		}
		return
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case w[a] > w[b]:
			return -1
		case w[a] < w[b]:
			return 1
		}
		return a - b
	})
}

// SolveWorkspace is Greedy's body, with every buffer (the result included)
// drawn from ws: the selection over ws.pre's rows, filled from in.G.
func (g Greedy) SolveWorkspace(in Instance, ws *Workspace) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	ws.pre.fillRows(in.G)
	return greedyPrepared(&ws.pre, in.W, ws), nil
}

// SolveWorkspace is Exact's body, with every buffer (the result and the
// graph preparation included) drawn from ws.
func (e Exact) SolveWorkspace(in Instance, ws *Workspace) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := e.checkSize(in.G.N()); err != nil {
		return nil, err
	}
	ws.pre.Prepare(in.G, ws)
	out, exhausted := ws.exact(&ws.pre, in.W, e.Budget, false)
	if !exhausted {
		return out, ErrBudgetExceeded
	}
	return out, nil
}

// checkSize is Exact's MaxNodes guard against an n-vertex instance.
func (e Exact) checkSize(n int) error {
	maxNodes := e.MaxNodes
	if maxNodes == 0 {
		maxNodes = 4096
	}
	if n > maxNodes {
		return fmt.Errorf("mwis: instance with %d vertices exceeds MaxNodes=%d", n, maxNodes)
	}
	return nil
}

// SolveWorkspace is Hybrid's body: above MaxExactNodes the greedy set,
// otherwise SolvePrepared over a fresh preparation in ws. The exact search
// runs first and Greedy only when the budget runs out: a search that
// completes returns an optimum, which the greedy set can only tie.
func (h Hybrid) SolveWorkspace(in Instance, ws *Workspace) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if _, maxExact := h.limits(); in.G.N() > maxExact {
		return Greedy{}.SolveWorkspace(in, ws)
	}
	ws.pre.Prepare(in.G, ws)
	return h.SolvePrepared(&ws.pre, in.W, ws)
}
