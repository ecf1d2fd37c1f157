// Package mwis solves the maximum weighted independent set problem that
// underlies every strategy decision of the paper: given the (extended)
// conflict graph and per-vertex weights, find an independent set of maximum
// total weight.
//
// Four solvers are provided:
//
//   - Exact: branch-and-bound with a clique-partition upper bound, exact on
//     instances up to a few hundred vertices (used for ground truth and for
//     the LocalLeaders' local enumerations). On up to 64 vertices, the
//     size of most local balls, the partition is a clique cover fitted to
//     each solve's weight order; on more, a partition by degree that a
//     Prepared graph keeps across solves.
//   - Greedy: max-weight-first, a fast constant-factor heuristic.
//   - Hybrid: Exact under a budget with Greedy fallback, the practical local
//     solver suggested in §IV-C ("we can use more efficient constant
//     approximation algorithm instead").
//   - RobustPTAS: the centralized robust PTAS of Nieberg, Hurink and Kern
//     used by the paper (§IV-B), parameterized by ρ = 1+ε; it needs no
//     geometry, only hop-distances.
package mwis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"multihopbandit/internal/graph"
)

// Instance is a weighted-graph MWIS problem.
type Instance struct {
	// G is the conflict graph.
	G *graph.Graph
	// W holds one non-negative weight per vertex of G.
	W []float64
}

// Validate checks structural consistency of the instance.
func (in Instance) Validate() error {
	if in.G == nil {
		return errors.New("mwis: nil graph")
	}
	if len(in.W) != in.G.N() {
		return fmt.Errorf("mwis: %d weights for %d vertices", len(in.W), in.G.N())
	}
	return checkWeights(in.W)
}

// checkWeights rejects negative and NaN weights: the bound assumes weights
// are non-negative, and the exact search sorts vertices by weight, which
// needs a total order.
func checkWeights(w []float64) error {
	for v, x := range w {
		if x < 0 || math.IsNaN(x) {
			return fmt.Errorf("mwis: invalid weight %v at vertex %d", x, v)
		}
	}
	return nil
}

// Weight returns the total weight of the given vertex set under the
// instance's weights.
func (in Instance) Weight(set []int) float64 {
	total := 0.0
	for _, v := range set {
		total += in.W[v]
	}
	return total
}

// Solver finds a (possibly approximate) maximum weighted independent set.
// Implementations must return an independent set; ids are sorted ascending.
type Solver interface {
	// Solve returns an independent set of in.G.
	Solve(in Instance) ([]int, error)
	// Name identifies the solver in experiment output.
	Name() string
}

// Verify reports whether set is an independent set of g.
func Verify(g *graph.Graph, set []int) bool { return g.IsIndependent(set) }

// ---------------------------------------------------------------------------
// Greedy

// Greedy repeatedly selects the maximum-weight remaining vertex and removes
// its closed neighborhood. Ties break toward the lower vertex id so results
// are deterministic.
type Greedy struct{}

var _ Solver = Greedy{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver: SolveWorkspace on a pooled workspace, with the
// set copied out.
func (g Greedy) Solve(in Instance) ([]int, error) { return solvePooled(in, g.SolveWorkspace) }

// ---------------------------------------------------------------------------
// Exact branch and bound

// ErrBudgetExceeded is returned by Exact when the search exceeds its node
// budget before proving optimality.
var ErrBudgetExceeded = errors.New("mwis: branch-and-bound budget exceeded")

// Exact is an exact branch-and-bound MWIS solver. It branches on the
// heaviest remaining vertex (ties toward the lower id), including it first.
// The upper bound is a greedy clique partition (each clique contributes at
// most its heaviest remaining member), which is tight on the extended
// conflict graph H where every node's channel copies form a clique. On up
// to 64 vertices the partition is the greedy clique cover of the instance
// in descending weight order (rootCover); on more, Prepared's partition by
// degree. Past its first coverAfter nodes a search also tries a greedy
// clique cover of each node's own remaining set. Each search first
// relabels the instance by descending weight, so that both the pivot and
// the bound are bit scans (see search).
type Exact struct {
	// MaxNodes rejects instances larger than this (0 = 4096) to guard
	// against accidentally exponential calls.
	MaxNodes int
	// Budget bounds the number of branch-and-bound nodes explored
	// (0 = unlimited). When exceeded, Solve returns ErrBudgetExceeded
	// along with the best set found so far.
	Budget int
}

var _ Solver = Exact{}

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Solve implements Solver: SolveWorkspace on a pooled workspace, with the
// set copied out. On ErrBudgetExceeded the returned set is still a valid
// independent set (the incumbent), so callers may treat the error as a
// quality downgrade rather than a failure.
func (e Exact) Solve(in Instance) ([]int, error) { return solvePooled(in, e.SolveWorkspace) }

// workspaces lends the Solve entry points a warm Workspace. A fresh one per
// call allocates every buffer of the search, which on small balls, such as
// RobustPTAS's inner per-ball solves, costs more than the search itself.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// solvePooled runs a solver's workspace body on a pooled Workspace and
// copies the set out, so no caller sees the workspace. The set is non-nil,
// also when empty; it accompanies a nil or ErrBudgetExceeded error.
func solvePooled(in Instance, solve func(Instance, *Workspace) ([]int, error)) ([]int, error) {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	set, err := solve(in, ws)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		return nil, err
	}
	return append([]int{}, set...), err
}

// search is the branch-and-bound state of one exact solve. It works in rank
// space: rank r is the r-th vertex by descending weight, ties toward the
// lower id. That is the order the pivot rule picks vertices in, so the
// pivot is the lowest remaining rank, and the lowest remaining rank of a
// clique, its head, is its heaviest remaining member. The cliques, one
// mask per rank in cmask, are the root cover's on one word (rootCover) and
// Prepared's on more. Each node carries the heads of its remaining set
// down the tree, so the clique bound is a sum over one bitset, and it
// carries that sum too, as an estimate that each child updates by the few
// heads its branch swapped. A node re-sums its heads only where the
// estimate's rounding could change a prune, a margin note or a gap deposit
// (see bound), so each of those is what an exact sum at every node would
// give. Past coverAfter nodes, a node the carried bound leaves open also
// builds a clique cover of its remaining set and prunes on its heads
// (coverWord).
//
// Rows are rank-major, words words each: row r of adj is
// adj[r*words:(r+1)*words]. The body that runs the search is chosen by
// words alone: branchWord on one word per row (n ≤ 64), where adj and
// cmask are one uint64 per rank; branchPair on two (65 ≤ n ≤ 128), where
// rank r's row is the pair at 2r and 2r+1; and branch, the slice body, on
// more.
type search struct {
	w      []float64 // weight per rank, non-increasing
	words  int
	adj    bitset // row r: the ranks adjacent to r
	cmask  bitset // row r: the ranks in r's clique, r included
	best   bitset
	bestW  float64
	budget int // remaining nodes; negative means unlimited
	nodes  int // nodes entered, counted under any budget (see coverAfter)

	// tol bounds the rounding that separates a carried estimate from the
	// exact heads sum, plus the comparison's own (see bound); sums counts
	// the nodes that summed their heads exactly.
	tol  float64
	sums int

	// Comparison-slack certificate (TrackSlack): slack is the minimum
	// |lhs−rhs| margin, pre-scaled per comparison kind, over every
	// weight-dependent comparison the search executed. Any weight vector w'
	// with Σ_v |w'_v − w_v| < slack flips none of those comparisons, so the
	// search on w' executes the identical traversal and returns the
	// identical set (see the exactness argument at Workspace.TrackSlack).
	//
	// Uniqueness-gap certificate (also TrackSlack): u accumulates an upper
	// bound on the original weight of every independent set OTHER than the
	// returned optimum. Visited sets deposit their exact weight at the
	// incumbent comparison (the improving ones deposit the superseded
	// incumbent's weight instead — the final optimum is the one visited set
	// never deposited), and pruned subtrees deposit their curW+ub bound,
	// which dominates every set inside them. bestW − u is then the gap to
	// the second-best independent set, and an L1 drift strictly below it
	// keeps the optimum unique (see Hybrid.SolvePrepared for why that alone
	// certifies a replay when the node budget guarantees exhaustion).
	track bool
	slack float64
	u     float64

	// Slice body only: three bitsets per recursion depth, the exclude
	// child's remaining set, the include child's, and the child's heads.
	depthBufs [][3]bitset
}

// note records one weight-dependent comparison's margin. A zero diff is a
// tie: the slack collapses to 0 and only exactly-equal weights can certify
// a replay.
func (st *search) note(diff float64) {
	if diff < 0 {
		diff = -diff
	}
	if diff < st.slack {
		st.slack = diff
	}
}

// exact runs the budgeted branch and bound over p under weights w, drawing
// every buffer from ws. It returns the incumbent as ascending vertex ids
// (aliasing ws) and whether the search exhausted. With track set, ws.st
// holds both slack certificates afterwards. An instance of at most 64
// vertices runs branchWord, one of 65 to 128 branchPair, a larger one
// branch; all three make the same comparisons in the same order. A
// one-word instance also builds each rank's row in a register, and bounds
// by the cover of the whole ball that rootCover fits to w instead of by
// p's partition, which only the larger bodies read.
//
// The rank-space search is the id-space branch and bound with the bound's
// clique maxima summed by rank instead of by id. Rounding can differ in the
// last bit, which flips a prune only where it lies within rounding of a
// tie, and the returned set or budget outcome can then differ; elsewhere
// pivots, prunes, incumbents and budget spending are the same.
// reference_test.go keeps the id-space search and checks this.
func (ws *Workspace) exact(p *Prepared, w []float64, budget int, track bool) ([]int, bool) {
	n, words := p.n, p.words
	st := &ws.st
	*st = search{w: growFloats(&ws.rw, n), words: words, budget: budget, track: track}
	if budget <= 0 {
		st.budget = -1
	}
	if track {
		st.slack = math.Inf(1)
	}
	order := growInts(&ws.order, n)
	for i := range order {
		order[i] = i
	}
	SortByWeight(order, w)
	rank := growInts(&ws.rank, n)
	total := 0.0
	for r, v := range order {
		rank[v] = r
		st.w[r] = w[v]
		total += w[v]
	}
	st.tol = carryTol(n, total)
	// Every bitset of the search comes out of one zeroed arena: the rank
	// adjacency, each rank's clique mask, the incumbent, the root's
	// remaining set and heads, the chosen set, the result in id space, and
	// past one word one mask per clique of p's partition and, for the slice
	// body, three per recursion depth.
	need := words * (2*n + 5)
	if words > 1 {
		need += words * p.ncliques
	}
	if words > 2 {
		need += words * 3 * (n + 1)
	}
	if cap(ws.arena) < need {
		ws.arena = make(bitset, need)
	}
	arena := ws.arena[:need]
	clear(arena)
	take := func(k int) bitset {
		b := arena[: k*words : k*words]
		arena = arena[k*words:]
		return b
	}
	st.adj, st.cmask = take(n), take(n)
	st.best = take(1)
	full, heads, cur, ids := take(1), take(1), take(1), take(1)
	if words == 1 {
		// One word per row: each rank's row builds up in a register and is
		// stored once, and the partition is the cover of the whole ball
		// that rootCover builds in rank order, not p's.
		for r, v := range order {
			var row uint64
			for word := p.arena[v]; word != 0; word &= word - 1 {
				row |= 1 << (uint(rank[bits.TrailingZeros64(word)]) % 64)
			}
			st.adj[r] = row
		}
		full[0] = ^uint64(0) >> (uint(64-n) % 64)
		heads[0] = st.rootCover(full[0])
	} else {
		cliques := take(p.ncliques)
		for r, v := range order {
			row := st.adj[r*words : (r+1)*words]
			for wi, word := range p.row(v) {
				for ; word != 0; word &= word - 1 {
					row.set(rank[wi*64+bits.TrailingZeros64(word)])
				}
			}
			bitset(cliques[p.clique[v]*words:]).set(r)
		}
		for r, v := range order {
			c := p.clique[v]
			copy(st.cmask[r*words:(r+1)*words], cliques[c*words:(c+1)*words])
		}
		for r := 0; r < n; r++ {
			full.set(r)
		}
		// Every clique is non-empty; its head is its lowest rank.
		for c := 0; c < p.ncliques; c++ {
			heads.set(bitset(cliques[c*words : (c+1)*words]).next(0))
		}
	}
	// The root has no estimate to carry: a NaN one makes it sum its heads.
	var exhausted bool
	switch words {
	case 1:
		exhausted = st.branchWord(full[0], heads[0], 0, 0, math.NaN(), 0)
	case 2:
		exhausted = st.branchPair(full[0], full[1], heads[0], heads[1], 0, 0, 0, math.NaN(), 0)
	default:
		st.depthBufs = growDepth(&ws.depthBufs, n+1)
		for i := range st.depthBufs {
			st.depthBufs[i] = [3]bitset{take(1), take(1), take(1)}
		}
		exhausted = st.branch(full, heads, cur, 0, math.NaN(), 0)
	}
	for wi, word := range st.best {
		for ; word != 0; word &= word - 1 {
			ids.set(order[wi*64+bits.TrailingZeros64(word)])
		}
	}
	out := ws.eout[:0]
	for wi, word := range ids {
		for ; word != 0; word &= word - 1 {
			out = append(out, wi*64+bits.TrailingZeros64(word))
		}
	}
	ws.eout = out
	return out, exhausted
}

// rootCover partitions remaining, a one-word ball's every rank, into the
// cliques coverWord builds: the lowest remaining rank opens a clique, which
// takes in ascending rank every remaining rank adjacent to all of its
// members so far. It writes each member's clique to cmask and returns the
// cliques' heads, their openers. This is the partition that bounds every
// node of a one-word search. Prepared's partition takes the vertices by
// degree and ignores the weights; this one is fitted to the weight order,
// the colouring bound of max-clique branch and bound (E. Tomita and T.
// Seki, DMTCS 2003; weighted in P. San Segundo, F. Furini and J. Artieda,
// Computers & OR 110, 2019), and on the work golden's Fig. 6-size balls
// its searches take 27–35% fewer nodes (EXPERIMENTS.md, "Root cover on
// one-word balls").
//
// Each opener and each member is the lowest rank of a set that adjacency
// fixes once the earlier choices are made: the remaining ranks for an
// opener, the candidates adjacent to every member so far for a member. So,
// as for the pivot, one margin certifies each choice, and a tracking
// search notes it: the chosen rank's weight less that of the set's next
// rank. Under any drift below every such margin the cover holds the same
// vertices in the same cliques, and the bound's maxima over them move as
// prune's note allows.
func (st *search) rootCover(remaining uint64) (heads uint64) {
	for remaining != 0 {
		v := bits.TrailingZeros64(remaining)
		clique := remaining & -remaining
		remaining ^= clique
		if st.track && remaining != 0 {
			st.note(st.w[v] - st.w[bits.TrailingZeros64(remaining)])
		}
		for q := remaining & st.adj[v]; q != 0; {
			u := bits.TrailingZeros64(q)
			clique |= q & -q
			q &= q - 1
			if st.track && q != 0 {
				st.note(st.w[u] - st.w[bits.TrailingZeros64(q)])
			}
			q &= st.adj[u]
		}
		remaining &^= clique
		heads |= clique & -clique
		for m := clique; m != 0; m &= m - 1 {
			st.cmask[bits.TrailingZeros64(m)] = clique
		}
	}
	return heads
}

// upperBound sums, per clique, the heaviest remaining vertex: an independent
// set contains at most one vertex per clique. In rank space a clique's
// heaviest remaining member is its head, so the bound adds the heads'
// weights in ascending rank, that is by descending weight. That order
// fixes the float every prune compares; bound calls it only where a
// carried estimate cannot stand in for it.
func (st *search) upperBound(heads bitset) float64 {
	total := 0.0
	for wi, word := range heads {
		for ; word != 0; word &= word - 1 {
			total += st.w[wi*64+bits.TrailingZeros64(word)]
		}
	}
	return total
}

// carryTol is the search's tol for n vertices of total weight total: a
// bound on |d − d*|, where d = curW + est − bestW is a node's margin from
// its carried estimate and d* = (curW + ub) − bestW the one prune compares,
// with ub the heads summed by upperBound.
//
// Every weight is non-negative, so every partial sum on either side is a
// subset sum of at most total. An addition or subtraction rounds by at
// most u·total (u = 2⁻⁵³) when its result is normal and not at all when it
// is subnormal; halving a subnormal rounds by at most 2⁻¹⁰⁷⁵. Along a path
// from the root, est is at most n additions from its last exact sum plus
// 2n updates, since each rank enters the heads at most once and leaves
// them at most once; ub is at most n additions; the two margins add at
// most four more roundings. So |d − d*| ≤ (4n+4)·(u·total + 2⁻¹⁰⁷⁵). tol
// takes 16·(n+1)·2⁻⁵²·total, eight times the relative part, so that the
// halved margin of a note and the extra additions in bound's tests stay
// inside it too, and adds 2⁻¹⁰²², the smallest normal number, for the
// absolute part, which it covers for any n below 2⁵⁰. An infinite total
// makes tol infinite, and every node then sums exactly.
func carryTol(n int, total float64) float64 {
	return 16*float64(n+1)*0x1p-52*total + 0x1p-1022
}

// bound decides the node's prune from est, the clique bound carried down
// from its parent, and returns the bound to carry to its children and
// whether the node is pruned. With m = |d| − tol for the margin d of
// carryTol, the estimate decides alone when m > 0 is finite (so d is too)
// and, while tracking,
//
//   - m/2 ≥ slack: prune's note, |d*|/2, is at least slack, so it cannot
//     lower it;
//   - d > 0, or curW + est + tol ≤ u: a pruned node's deposit, curW + ub,
//     is at most u, so it cannot raise it.
//
// Then d* has d's sign and prune would return d < 0 and change neither
// certificate. Anywhere else, a NaN or infinite estimate included, bound
// sums the heads and calls prune with the exact bound, so every prune
// decision, note and deposit is bit-identical to an exact sum at every
// node. The exact bound is what the children then carry.
func (st *search) bound(curW, est float64, heads bitset) (float64, bool) {
	d := curW + est - st.bestW
	if m := math.Abs(d) - st.tol; m > 0 && m <= math.MaxFloat64 &&
		(!st.track || m/2 >= st.slack && (d > 0 || curW+est+st.tol <= st.u)) {
		return est, d < 0
	}
	st.sums++
	ub := st.upperBound(heads)
	return ub, st.prune(curW, ub)
}

// noteIncumbent is the incumbent comparison's certificate bookkeeping,
// shared by both bodies. curW − bestW is a ±1-weighted sum over the
// symmetric difference of the two sets, so an L1 weight drift below
// |curW − bestW| cannot flip it. Callers skip the root, which compares two
// empty sums (0 > 0, structurally false under any weights): noting its zero
// margin would void every certificate.
func (st *search) noteIncumbent(curW float64) {
	st.note(curW - st.bestW)
	if curW > st.bestW {
		if st.bestW > st.u {
			st.u = st.bestW
		}
	} else if curW > st.u {
		st.u = curW
	}
}

// prune runs the prune comparison and its certificate bookkeeping on the
// exact bound ub, shared by both bodies through bound, and reports whether
// the node is pruned. curW + ub − bestW moves by at most 2× the L1 drift
// (cur and remaining are disjoint, contributing ≤ D1 together; best may
// overlap both and contributes ≤ D1 on its own), hence the halved margin.
// The bound itself needs no recording: whichever vertex attains a clique's
// maximum, the maximum's value moves by at most the clique members' summed
// drift.
func (st *search) prune(curW, ub float64) bool {
	if st.track {
		st.note((curW + ub - st.bestW) / 2)
	}
	if curW+ub <= st.bestW {
		// Every set inside the pruned subtree weighs at most curW+ub;
		// depositing the bound keeps the uniqueness gap valid for them.
		if st.track && curW+ub > st.u {
			st.u = curW + ub
		}
		return true
	}
	return false
}

// coverAfter is the node count past which a search bounds each node twice.
// Every node first tries the static bound, the heads of the partition
// fixed at the root (rootCover's on one word, Prepared's on more), which
// the node carries from its parent (bound). From the search's
// (coverAfter+1)-th node on, a node that the static bound leaves open also
// sums the heads of a greedy clique cover of its own remaining set
// (coverWord) and prunes on that sum. The static partition was fitted to
// the whole ball; deep in a hard search the remaining set is a small part
// of it, and the cover fitted to that part is the colouring bound of
// max-clique branch and bound (E. Tomita and T. Seki, DMTCS 2003;
// bit-parallel in P. San Segundo et al., Computers & OR 38(2), 2011),
// applied to the complement. It costs a pass over the remaining set per
// node, several static nodes' worth on a two-word ball, so only hard
// searches build one: with the switch at 1,024 nodes, the two-word balls
// that take a few thousand static nodes, common in the decider's steady
// state, ran about three times slower. A search that ends within
// coverAfter nodes makes exactly the comparisons, and keeps exactly the
// certificates, of a search without it. The pivot rule is untouched and a
// prune never drops a set heavier than the incumbent, so whatever bound
// prunes it, a search that finishes returns the first maximum-weight set
// in include-first order.
const coverAfter = 8192

// open reports whether a node of weight curW whose cover heads sum to at
// least sum so far stays open. Every head is non-negative and adding one
// never lowers a float sum, so once curW+sum exceeds bestW the whole sum
// does too, and prune would keep the node; the cover builders stop there.
func (st *search) open(curW, sum float64) bool { return curW+sum > st.bestW }

// coverWord reports whether the cover bound of remaining prunes a node of
// weight curW, one word, and runs prune on it. The lowest remaining rank
// opens a clique, every later rank adjacent to all of its members joins it
// in ascending rank, and the next clique opens at the lowest rank left. A
// clique's opener is its head, its heaviest member, so the heads' sum
// bounds every independent set in remaining; they add in ascending rank.
// Built one clique at a time, a clique's candidates are the remaining
// ranks adjacent to every member so far, so each member narrows them by
// its row. That is the same partition as placing each rank in turn into
// the first clique whose members are all its neighbours (reference_test.go
// builds it that way).
//
// The cover depends on the rank order of the remaining set, and unlike
// rootCover it notes no margin for the choices that build it, so building
// one voids the traversal certificate. The uniqueness gap stays sound: the
// sum bounds every set in the subtree it prunes, and prune deposits it.
func (st *search) coverWord(curW float64, remaining uint64) bool {
	st.note(0)
	sum := 0.0
	for remaining != 0 {
		v := bits.TrailingZeros64(remaining)
		if sum += st.w[v]; st.open(curW, sum) {
			return false
		}
		q := remaining & st.adj[v]
		remaining &= remaining - 1
		for q != 0 {
			remaining &^= q & -q
			q &= st.adj[bits.TrailingZeros64(q)]
		}
	}
	return st.prune(curW, sum)
}

// coverPair is coverWord on two words, lo for ranks 0–63 and hi for ranks
// 64–127. A clique opened in lo takes its lo members before its hi ones,
// ascending rank, and once lo is empty every clique lies in hi. It builds
// the partition coverSlice would, in registers: coverSlice on two words,
// which keeps its sets in memory and loops over words, made the Fig.
// 8-size two-word solves of BenchmarkSolvePrepared/wide about 1.4 times as
// slow and the golden figgen run about 1.27 times as slow.
func (st *search) coverPair(curW float64, lo, hi uint64) bool {
	st.note(0)
	sum := 0.0
	for lo != 0 {
		v := bits.TrailingZeros64(lo)
		if sum += st.w[v]; st.open(curW, sum) {
			return false
		}
		qLo, qHi := lo&st.adj[2*v], hi&st.adj[2*v+1]
		lo &= lo - 1
		for qLo != 0 {
			u := bits.TrailingZeros64(qLo)
			lo &^= qLo & -qLo
			qLo &= st.adj[2*u]
			qHi &= st.adj[2*u+1]
		}
		for qHi != 0 {
			u := 64 + bits.TrailingZeros64(qHi)
			hi &^= qHi & -qHi
			qHi &= st.adj[2*u+1]
		}
	}
	for hi != 0 {
		v := 64 + bits.TrailingZeros64(hi)
		if sum += st.w[v]; st.open(curW, sum) {
			return false
		}
		q := hi & st.adj[2*v+1]
		hi &= hi - 1
		for q != 0 {
			u := 64 + bits.TrailingZeros64(q)
			hi &^= q & -q
			q &= st.adj[2*u+1]
		}
	}
	return st.prune(curW, sum)
}

// coverSlice is coverWord on sets of st.words words, built in rem and q:
// scratch bitsets of the node's depth, which its children fill only later.
// No rank left in rem or q lies below the clique's head or below the
// member just taken, so each pass starts at that rank's word, and the
// word being taken from stays in a register.
func (st *search) coverSlice(curW float64, remaining, rem, q bitset) bool {
	words := st.words
	st.note(0)
	copy(rem, remaining)
	sum := 0.0
	for wi := range rem {
		for rem[wi] != 0 {
			v := wi*64 + bits.TrailingZeros64(rem[wi])
			if sum += st.w[v]; st.open(curW, sum) {
				return false
			}
			rem[wi] &= rem[wi] - 1
			row := st.adj[v*words : (v+1)*words]
			for i := wi; i < words; i++ {
				q[i] = rem[i] & row[i]
			}
			for qi := wi; qi < words; qi++ {
				for cur := q[qi]; cur != 0; {
					b := cur & -cur
					rem[qi] &^= b
					row := st.adj[(qi*64+bits.TrailingZeros64(b))*words:]
					cur &= row[qi]
					for i := qi + 1; i < words; i++ {
						q[i] &= row[i]
					}
				}
			}
		}
	}
	return st.prune(curW, sum)
}

// branch explores the remaining subproblem, whose clique heads are heads
// and whose carried clique bound is est (see bound), given the current
// chosen set and weight at the given recursion depth. It returns false if
// the budget ran out. It serves instances of more than 128 vertices, its
// sets slices of the arena, three per depth. branchWord and branchPair are
// the same search on one-word and two-word sets; all three must make the
// same comparisons in the same order.
func (st *search) branch(remaining, heads, cur bitset, curW, est float64, depth int) bool {
	if st.budget == 0 {
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.nodes++
	if st.track && depth > 0 {
		st.noteIncumbent(curW)
	}
	if curW > st.bestW {
		st.bestW = curW
		copy(st.best, cur)
	}
	// Branch on the heaviest remaining vertex, ties toward the lower id: the
	// lowest remaining rank.
	pivot := remaining.next(0)
	if pivot < 0 {
		return true
	}
	est, pruned := st.bound(curW, est, heads)
	if pruned {
		return true
	}
	bufs := &st.depthBufs[depth]
	if st.nodes > coverAfter && st.coverSlice(curW, remaining, bufs[0], bufs[1]) {
		return true
	}
	// The pivot choice depends on one margin, max − runner-up (the next
	// remaining rank): under any drift below it the pivot stays the strict
	// maximum, however the other vertices reorder among themselves. A
	// singleton records nothing; an exact tie for the maximum records a zero
	// margin, voiding the certificate.
	if st.track {
		if second := remaining.next(pivot + 1); second >= 0 {
			st.note(st.w[pivot] - st.w[second])
		}
	}
	words := st.words
	adj := st.adj[pivot*words : (pivot+1)*words]
	excl, incl, childHeads := bufs[0], bufs[1], bufs[2]
	copy(excl, remaining)
	excl.clear(pivot)
	// Both children's estimates drop the pivot, which is always a head.
	rest := est - st.w[pivot]
	// Include pivot: drop pivot and its neighbors from the remainder. The
	// pivot's clique lies in its neighborhood and leaves with it; every
	// other clique whose head left gets its lowest rank still in incl, and
	// every other head stays. The estimate swaps the same heads.
	excl.andNotInto(adj, incl)
	heads.andNotInto(adj, childHeads)
	childHeads.clear(pivot)
	childEst := rest
	for wi := pivot / 64; wi < words; wi++ {
		for gone := heads[wi] & adj[wi]; gone != 0; gone &= gone - 1 {
			h := wi*64 + bits.TrailingZeros64(gone)
			childEst -= st.w[h]
			if next := incl.nextAnd(st.cmask[h*words:(h+1)*words], wi); next >= 0 {
				childHeads.set(next)
				childEst += st.w[next]
			}
		}
	}
	cur.set(pivot)
	ok := st.branch(incl, childHeads, cur, curW+st.w[pivot], childEst, depth+1)
	cur.clear(pivot)
	if !ok {
		return false
	}
	// Exclude pivot: its clique's next rank in excl, if any, heads it.
	copy(childHeads, heads)
	childHeads.clear(pivot)
	childEst = rest
	if next := excl.nextAnd(st.cmask[pivot*words:(pivot+1)*words], pivot/64); next >= 0 {
		childHeads.set(next)
		childEst += st.w[next]
	}
	return st.branch(excl, childHeads, cur, curW, childEst, depth+1)
}

// branchWord is branch on an instance of at most 64 vertices: every set is
// one word, passed by value, so a node copies nothing and loops over no
// words. It makes branch's comparisons, note calls and u deposits in
// branch's order, and carries its estimate by the same updates;
// branchPair does the same on two words.
func (st *search) branchWord(remaining, heads, cur uint64, curW, est float64, depth int) bool {
	if st.budget == 0 {
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.nodes++
	if st.track && depth > 0 {
		st.noteIncumbent(curW)
	}
	if curW > st.bestW {
		st.bestW = curW
		st.best[0] = cur
	}
	if remaining == 0 {
		return true
	}
	pivot := bits.TrailingZeros64(remaining)
	est, pruned := st.bound(curW, est, bitset{heads})
	if pruned || st.nodes > coverAfter && st.coverWord(curW, remaining) {
		return true
	}
	bit := uint64(1) << pivot
	excl := remaining &^ bit
	if st.track && excl != 0 {
		st.note(st.w[pivot] - st.w[bits.TrailingZeros64(excl)])
	}
	adj := st.adj[pivot]
	incl := excl &^ adj
	childHeads := heads &^ (adj | bit)
	rest := est - st.w[pivot]
	childEst := rest
	for gone := heads & adj; gone != 0; gone &= gone - 1 {
		h := bits.TrailingZeros64(gone)
		childEst -= st.w[h]
		if next := incl & st.cmask[h]; next != 0 {
			childHeads |= next & -next
			childEst += st.w[bits.TrailingZeros64(next)]
		}
	}
	if !st.branchWord(incl, childHeads, cur|bit, curW+st.w[pivot], childEst, depth+1) {
		return false
	}
	childHeads = heads &^ bit
	childEst = rest
	if next := excl & st.cmask[pivot]; next != 0 {
		childHeads |= next & -next
		childEst += st.w[bits.TrailingZeros64(next)]
	}
	return st.branchWord(excl, childHeads, cur, curW, childEst, depth+1)
}

// branchPair is branch on an instance of 65 to 128 vertices: every set is
// two words passed by value, lo for ranks 0–63 and hi for ranks 64–127,
// and rank r's rows are adj[2r], adj[2r+1] and cmask[2r], cmask[2r+1]. It
// makes branch's comparisons, note calls and u deposits in branch's order,
// and carries its estimate by the same updates. Every lookup of a
// clique's next rank starts at its head's word: no clique member ranks
// below its head, so a head in lo looks in lo and then in hi, and a head
// in hi looks in hi alone, which is nextAnd's answer.
func (st *search) branchPair(remLo, remHi, headLo, headHi, curLo, curHi uint64, curW, est float64, depth int) bool {
	if st.budget == 0 {
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.nodes++
	if st.track && depth > 0 {
		st.noteIncumbent(curW)
	}
	if curW > st.bestW {
		st.bestW = curW
		st.best[0], st.best[1] = curLo, curHi
	}
	// The pivot is the lowest remaining rank; its bit is set in one word
	// and the other's is zero.
	var pivot int
	var bitLo, bitHi uint64
	switch {
	case remLo != 0:
		pivot = bits.TrailingZeros64(remLo)
		bitLo = remLo & -remLo
	case remHi != 0:
		pivot = 64 + bits.TrailingZeros64(remHi)
		bitHi = remHi & -remHi
	default:
		return true
	}
	est, pruned := st.bound(curW, est, bitset{headLo, headHi})
	if pruned || st.nodes > coverAfter && st.coverPair(curW, remLo, remHi) {
		return true
	}
	exclLo, exclHi := remLo&^bitLo, remHi&^bitHi
	if st.track {
		if exclLo != 0 {
			st.note(st.w[pivot] - st.w[bits.TrailingZeros64(exclLo)])
		} else if exclHi != 0 {
			st.note(st.w[pivot] - st.w[64+bits.TrailingZeros64(exclHi)])
		}
	}
	adjLo, adjHi := st.adj[2*pivot], st.adj[2*pivot+1]
	inclLo, inclHi := exclLo&^adjLo, exclHi&^adjHi
	childLo, childHi := headLo&^(adjLo|bitLo), headHi&^(adjHi|bitHi)
	rest := est - st.w[pivot]
	childEst := rest
	// The lo word's heads go first, each word's in ascending rank, so that
	// childEst takes branch's updates in branch's order and rounds as its
	// does.
	for gone := headLo & adjLo; gone != 0; gone &= gone - 1 {
		h := bits.TrailingZeros64(gone)
		childEst -= st.w[h]
		if next := inclLo & st.cmask[2*h]; next != 0 {
			childLo |= next & -next
			childEst += st.w[bits.TrailingZeros64(next)]
		} else if next := inclHi & st.cmask[2*h+1]; next != 0 {
			childHi |= next & -next
			childEst += st.w[64+bits.TrailingZeros64(next)]
		}
	}
	for gone := headHi & adjHi; gone != 0; gone &= gone - 1 {
		h := 64 + bits.TrailingZeros64(gone)
		childEst -= st.w[h]
		if next := inclHi & st.cmask[2*h+1]; next != 0 {
			childHi |= next & -next
			childEst += st.w[64+bits.TrailingZeros64(next)]
		}
	}
	if !st.branchPair(inclLo, inclHi, childLo, childHi, curLo|bitLo, curHi|bitHi, curW+st.w[pivot], childEst, depth+1) {
		return false
	}
	childLo, childHi = headLo&^bitLo, headHi&^bitHi
	childEst = rest
	if next := exclLo & st.cmask[2*pivot]; next != 0 {
		childLo |= next & -next
		childEst += st.w[bits.TrailingZeros64(next)]
	} else if next := exclHi & st.cmask[2*pivot+1]; next != 0 {
		childHi |= next & -next
		childEst += st.w[64+bits.TrailingZeros64(next)]
	}
	return st.branchPair(exclLo, exclHi, childLo, childHi, curLo, curHi, curW, childEst, depth+1)
}

// ---------------------------------------------------------------------------
// Hybrid

// Hybrid runs Exact under a budget and falls back to the incumbent (or to
// Greedy if the incumbent is worse) when the budget is exhausted. This is
// the practical local solver for LocalLeaders on dense neighborhoods.
type Hybrid struct {
	// Budget is the branch-and-bound node budget (default 50000).
	Budget int
	// MaxExactNodes skips Exact entirely above this size (default 512).
	MaxExactNodes int
}

var _ Solver = Hybrid{}

// Name implements Solver.
func (Hybrid) Name() string { return "hybrid" }

// Solve implements Solver: SolveWorkspace on a pooled workspace, with the
// set copied out.
func (h Hybrid) Solve(in Instance) ([]int, error) { return solvePooled(in, h.SolveWorkspace) }

// limits returns the node budget and the exact-search size cap, defaults
// applied.
func (h Hybrid) limits() (budget, maxExact int) {
	budget, maxExact = h.Budget, h.MaxExactNodes
	if budget == 0 {
		budget = 50000
	}
	if maxExact == 0 {
		maxExact = 512
	}
	return budget, maxExact
}
