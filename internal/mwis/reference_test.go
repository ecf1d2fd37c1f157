package mwis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
)

// This file keeps the code that the package's production bodies replaced,
// as the oracles their tests compare against:
//
//   - the allocating Greedy and Hybrid bodies, for the workspace and
//     prepared paths (TestSolveWorkspaceMatchesSolve,
//     TestSolvePreparedMatchesSolve);
//   - the id-space branch and bound, for the rank-space search
//     (TestRankSearchMatchesReference);
//   - the list-based greedy clique partition, for the bitset partition
//     of Prepare and PrepareInduced (checkPreparation).
//
// referenceGreedySolve and referenceHybridSolve are the Greedy.Solve and
// Hybrid.Solve bodies verbatim, except for their names and the Hybrid body
// calling referenceGreedySolve where it called Greedy.Solve. Where the
// greedy set ties the exhaustive search's to within rounding,
// referenceHybridSolve can return the greedy set and Hybrid the search's
// (TestHybridKeepsExhaustiveSetOnRoundingTie).

func referenceGreedySolve(in Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.G.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := in.W[order[a]], in.W[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	removed := make([]bool, n)
	var out []int
	for _, v := range order {
		if removed[v] {
			continue
		}
		out = append(out, v)
		removed[v] = true
		for _, u := range in.G.Neighbors(v) {
			removed[u] = true
		}
	}
	sort.Ints(out)
	return out, nil
}

func referenceHybridSolve(h Hybrid, in Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	budget := h.Budget
	if budget == 0 {
		budget = 50000
	}
	maxExact := h.MaxExactNodes
	if maxExact == 0 {
		maxExact = 512
	}
	greedySet, err := referenceGreedySolve(in)
	if err != nil {
		return nil, err
	}
	if in.G.N() > maxExact {
		return greedySet, nil
	}
	exactSet, err := Exact{MaxNodes: maxExact, Budget: budget}.Solve(in)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		return nil, err
	}
	if in.Weight(exactSet) >= in.Weight(greedySet) {
		return exactSet, nil
	}
	return greedySet, nil
}

// The id-space branch and bound follows. refSearch, note, upperBound and
// branch are that code verbatim, except for the renamed type, the added
// sumByRank, maxima, cover, nodes and first-fit fields, branch calling
// bound where it called upperBound, and branch counting its nodes and
// trying coverBound past coverAfter when cover is set. With sumByRank and
// cover unset, it is the static-bound search as it was.

type refSearch struct {
	n        int
	adj      []bitset // closed neighborhoods are adj[v] plus v itself
	w        []float64
	clique   []int // clique id per vertex from a greedy clique partition
	ncliques int
	best     bitset
	bestW    float64
	budget   int // remaining nodes; negative means unlimited

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
	// keeps the optimum unique (see exactPrepared for why that alone
	// certifies a replay when the node budget guarantees exhaustion).
	track bool
	slack float64
	u     float64

	// Reusable buffers: cliqueMax for the upper bound, and one pair of
	// bitsets per recursion depth for the include/exclude branches.
	cliqueMax []float64
	depthBufs [][2]bitset

	// sumByRank re-sums each bound in rank order (see bound).
	sumByRank bool
	maxima    []float64

	// cover bounds every node past coverAfter that the static bound leaves
	// open by its first-fit clique cover as well (see coverBound); nodes
	// counts the nodes entered, order lists every vertex by descending
	// weight, ties toward the lower id, and cliques holds, per clique of
	// the cover being built, the vertices adjacent to all of its members.
	cover   bool
	nodes   int
	order   []int
	cliques []bitset
}

// note records one weight-dependent comparison's margin. A zero diff is a
// tie: the slack collapses to 0 and only exactly-equal weights can certify
// a replay.
func (st *refSearch) note(diff float64) {
	if diff < 0 {
		diff = -diff
	}
	if diff < st.slack {
		st.slack = diff
	}
}

// upperBound sums, per clique, the heaviest remaining vertex: an independent
// set contains at most one vertex per clique. It reuses st.cliqueMax to stay
// allocation-free on the hot path.
func (st *refSearch) upperBound(remaining bitset) float64 {
	for i := range st.cliqueMax {
		st.cliqueMax[i] = 0
	}
	total := 0.0
	for wi, word := range remaining {
		for word != 0 {
			v := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			c := st.clique[v]
			if st.w[v] > st.cliqueMax[c] {
				total += st.w[v] - st.cliqueMax[c]
				st.cliqueMax[c] = st.w[v]
			}
		}
	}
	return total
}

// branch explores the remaining subproblem given the current chosen set and
// weight at the given recursion depth. It returns false if the budget ran
// out.
func (st *refSearch) branch(remaining bitset, curW float64, cur bitset, depth int) bool {
	if st.budget == 0 {
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.nodes++
	// Incumbent comparison: curW − bestW is a ±1-weighted sum over the
	// symmetric difference of the two sets, so an L1 weight drift below
	// |curW − bestW| cannot flip it. Depth 0 compares two empty sums (0 > 0,
	// structurally false under any weights) and is not recorded — noting its
	// zero margin would void every certificate.
	if st.track && depth > 0 {
		st.note(curW - st.bestW)
		if curW > st.bestW {
			if st.bestW > st.u {
				st.u = st.bestW
			}
		} else if curW > st.u {
			st.u = curW
		}
	}
	if curW > st.bestW {
		st.bestW = curW
		copy(st.best, cur)
	}
	if remaining.empty() {
		return true
	}
	ub := st.bound(remaining)
	// Prune comparison: curW + ub − bestW moves by at most 2× the L1 drift
	// (cur and remaining are disjoint, contributing ≤ D1 together; best may
	// overlap both and contributes ≤ D1 on its own), hence the halved margin.
	// The comparisons inside upperBound itself need no recording: whichever
	// vertex attains a clique's maximum, the maximum's value moves by at most
	// the clique members' summed drift.
	if st.track {
		st.note((curW + ub - st.bestW) / 2)
	}
	if curW+ub <= st.bestW {
		// Every set inside the pruned subtree weighs at most curW+ub;
		// depositing the bound keeps the uniqueness gap valid for them.
		if st.track && curW+ub > st.u {
			st.u = curW + ub
		}
		return true // pruned
	}
	if st.cover && st.nodes > coverAfter {
		// The cover follows the whole weight order, so it voids the
		// traversal slack; its prune deposits its bound as the static
		// prune does.
		ub := st.coverBound(remaining)
		st.note(0)
		if curW+ub <= st.bestW {
			if st.track && curW+ub > st.u {
				st.u = curW + ub
			}
			return true
		}
	}
	// Branch on the heaviest remaining vertex (ties toward lower id). The
	// scan's outcome is exactly the argmax with first-index tie-breaking, so
	// the only margin the traversal depends on is max − runner-up: the pivot
	// survives any drift below it (earlier vertices stay strictly below,
	// later ones stay at-or-below), while comparisons among non-pivot
	// vertices only shuffle scan-internal state. A singleton scan is
	// weight-independent and records nothing; an exact tie for the maximum
	// records a zero margin, voiding the certificate.
	pivot, pw := -1, -1.0
	if st.track {
		second := -1.0
		remaining.forEach(func(v int) {
			if st.w[v] > pw {
				second = pw
				pw = st.w[v]
				pivot = v
			} else if st.w[v] > second {
				second = st.w[v]
			}
		})
		if second >= 0 {
			st.note(pw - second)
		}
	} else {
		remaining.forEach(func(v int) {
			if st.w[v] > pw {
				pw = st.w[v]
				pivot = v
			}
		})
	}
	// Include pivot: drop pivot and its neighbors from the remainder.
	withPivot := st.depthBufs[depth][0]
	copy(withPivot, remaining)
	withPivot.clear(pivot)
	inclRemaining := st.depthBufs[depth][1]
	withPivot.andNotInto(st.adj[pivot], inclRemaining)
	cur.set(pivot)
	ok := st.branch(inclRemaining, curW+st.w[pivot], cur, depth+1)
	cur.clear(pivot)
	if !ok {
		return false
	}
	// Exclude pivot.
	return st.branch(withPivot, curW, cur, depth+1)
}

// bound is upperBound, re-summed when sumByRank is set: the same clique
// maxima, added by descending weight as the rank-space bound adds its heads.
func (st *refSearch) bound(remaining bitset) float64 {
	ub := st.upperBound(remaining)
	if !st.sumByRank {
		return ub
	}
	st.maxima = st.maxima[:0]
	for _, x := range st.cliqueMax {
		if x > 0 {
			st.maxima = append(st.maxima, x)
		}
	}
	slices.Sort(st.maxima)
	ub = 0
	for i := len(st.maxima) - 1; i >= 0; i-- {
		ub += st.maxima[i]
	}
	return ub
}

// coverBound is the rank-space search's cover bound (coverWord) in id
// space, built a vertex at a time rather than a clique at a time: the
// remaining vertices by descending weight, ties toward the lower id, each
// placed in the first clique whose members are all its neighbours, that
// is, the first whose members' rows all hold it, or else opening a new
// one. Each clique's first member is its heaviest, and the bound adds
// them in the order their cliques opened.
func (st *refSearch) coverBound(remaining bitset) float64 {
	if st.order == nil {
		st.order = make([]int, st.n)
		for v := range st.order {
			st.order[v] = v
		}
		slices.SortFunc(st.order, func(a, b int) int {
			switch {
			case st.w[a] > st.w[b]:
				return -1
			case st.w[a] < st.w[b]:
				return 1
			}
			return a - b
		})
	}
	heads := st.maxima[:0]
	for _, v := range st.order {
		if !remaining.has(v) {
			continue
		}
		fits := 0
		for fits < len(heads) && !st.cliques[fits].has(v) {
			fits++
		}
		if fits == len(heads) {
			if fits == len(st.cliques) {
				st.cliques = append(st.cliques, newBitset(st.n))
			}
			copy(st.cliques[fits], st.adj[v])
			heads = append(heads, st.w[v])
			continue
		}
		for i, word := range st.adj[v] {
			st.cliques[fits][i] &= word
		}
	}
	st.maxima = heads
	ub := 0.0
	for _, x := range heads {
		ub += x
	}
	return ub
}

// has reports whether bit i is set; coverBound uses it.
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// empty reports whether b has no set bit; refSearch.branch uses it.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn for every set bit in ascending order; refSearch uses it.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*64 + tz)
			w &= w - 1
		}
	}
}

// refResult is what one reference or rank-space solve reports.
type refResult struct {
	set       []int
	exhausted bool
	nodes     int     // branch-and-bound nodes spent
	slack     float64 // traversal slack
	gap       float64 // uniqueness gap, bestW − u
}

// refSolve runs the id-space search over p under w with a finite budget,
// tracking both certificates. With current set it bounds as the rank-space
// search does, the static bound summed in rank order and the cover past
// coverAfter; without, it is the static-bound search as it was.
func refSolve(p *Prepared, w []float64, budget int, current bool) refResult {
	n, words := p.n, p.words
	adj := make([]bitset, n)
	for v := range adj {
		adj[v] = p.row(v)
	}
	st := &refSearch{
		n: n, adj: adj, w: w, clique: p.clique, ncliques: p.ncliques,
		budget: budget, track: true, slack: math.Inf(1), sumByRank: current, cover: current,
		cliqueMax: make([]float64, p.ncliques),
		best:      newBitset(n),
		depthBufs: make([][2]bitset, n+1),
	}
	for i := range st.depthBufs {
		st.depthBufs[i] = [2]bitset{make(bitset, words), make(bitset, words)}
	}
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	exhausted := st.branch(full, 0, newBitset(n), 0)
	var set []int
	st.best.forEach(func(i int) { set = append(set, i) })
	return refResult{set, exhausted, budget - st.budget, st.slack, st.bestW - st.u}
}

// sameBits reports whether two results agree bit for bit, their floats
// compared by bit pattern: infinite weights can make a gap NaN, which
// reflect.DeepEqual never finds equal to itself.
func sameBits(a, b refResult) bool {
	return equalIntSlices(a.set, b.set) && a.exhausted == b.exhausted && a.nodes == b.nodes &&
		math.Float64bits(a.slack) == math.Float64bits(b.slack) && math.Float64bits(a.gap) == math.Float64bits(b.gap)
}

// rankSolve runs the package's search under the same conditions.
func rankSolve(p *Prepared, w []float64, budget int, ws *Workspace) refResult {
	set, exhausted := ws.exact(p, w, budget, true)
	st := &ws.st
	return refResult{append([]int(nil), set...), exhausted, budget - st.budget, st.slack, st.bestW - st.u}
}

// zeroTolSolve reruns the search that ws.exact last set up on an instance
// of 65–128 vertices, from its root, in the two-word body (pair) or in the
// slice body, with tol zeroed and its node count restarted, so that past
// coverAfter nodes both build their covers (coverPair, coverSlice). It
// returns the result, its set in rank space, and the nodes that summed
// their heads exactly. At the real tolerance an estimate that rounds
// another way decides no prune differently, and changes an exact-sum count
// only where a margin lies within rounding of tol, so two bodies that
// carried it in another order would still agree; with none, the estimate
// decides every prune it can on its own, and they part ways at a near-tie
// where their estimates round apart.
func zeroTolSolve(ws *Workspace, budget int, pair bool) (refResult, int) {
	st := &ws.st
	n, words := len(st.w), st.words
	full, heads, cur := make(bitset, words), make(bitset, words), make(bitset, words)
	for r := 0; r < n; r++ {
		full.set(r)
		if bitset(st.cmask[r*words:(r+1)*words]).next(0) == r {
			heads.set(r)
		}
	}
	clear(st.best)
	st.bestW, st.budget, st.nodes, st.tol, st.sums, st.slack, st.u = 0, budget, 0, 0, 0, math.Inf(1), 0
	var exhausted bool
	if pair {
		exhausted = st.branchPair(full[0], full[1], heads[0], heads[1], 0, 0, 0, math.NaN(), 0)
	} else {
		st.depthBufs = make([][3]bitset, n+1)
		for i := range st.depthBufs {
			st.depthBufs[i] = [3]bitset{make(bitset, words), make(bitset, words), make(bitset, words)}
		}
		exhausted = st.branch(full, heads, cur, 0, math.NaN(), 0)
	}
	var set []int
	st.best.forEach(func(r int) { set = append(set, r) })
	return refResult{set, exhausted, budget - st.budget, st.slack, st.bestW - st.u}, st.sums
}

// checkPairRetracesSlice is the third oracle of
// TestRankSearchMatchesReference, run after rankSolve: on 65–128 vertices,
// zeroTolSolve in the two-word body and in the slice body must agree bit
// for bit, exact sums included. It checks nothing at other sizes, and
// reports whether the two ran past coverAfter nodes, so that their covers
// were compared too.
func checkPairRetracesSlice(t *testing.T, desc string, ws *Workspace, budget int) bool {
	t.Helper()
	if n := len(ws.st.w); n <= 64 || n > 128 {
		return false
	}
	pair, pairSums := zeroTolSolve(ws, budget, true)
	slice, sliceSums := zeroTolSolve(ws, budget, false)
	if !sameBits(pair, slice) || pairSums != sliceSums {
		t.Fatalf("%s: with tol zeroed, two-word body %+v after %d exact sums, slice body %+v after %d",
			desc, pair, pairSums, slice, sliceSums)
	}
	return pair.nodes > coverAfter
}

// sameAnswerBudget is the decider's node budget, which checkSameAnswer
// runs at on every trial and ball; TestCoverChangedAnswers runs it at
// staticBudget, on balls where the static-bound search stops at the
// decider's.
const sameAnswerBudget, staticBudget = 50_000, 5_000_000

// checkSameAnswer is the oracle that answers do not depend on the bound:
// wherever the static-bound id-space search finishes within budget nodes,
// the rank-space search must finish within as many and return the same
// set. Both branch on the same pivots, and a prune drops no set heavier
// than the incumbent, so each returns the first maximum-weight set in
// include-first order. It reports whether the static search finished.
func checkSameAnswer(t testing.TB, desc string, p *Prepared, w []float64, budget int, ws *Workspace) bool {
	t.Helper()
	want := refSolve(p, w, budget, false)
	if !want.exhausted {
		return false
	}
	set, exhausted := ws.exact(p, w, budget, false)
	if !exhausted || !equalIntSlices(set, want.set) {
		t.Fatalf("%s: set %v exhausted %v, static-bound search %v after %d nodes", desc, set, exhausted, want.set, want.nodes)
	}
	return true
}

// referenceCliquePartition is the list-based greedy clique partition that
// Prepared.partition replaced, verbatim except for its name and its
// buffers, which it allocates where the original drew them from a
// Workspace: scan vertices in decreasing-degree order (ties toward the
// lower id); each unassigned vertex starts a clique and pulls in
// unassigned neighbors adjacent to every current member.
func referenceCliquePartition(g *graph.Graph) []int {
	n := g.N()
	clique := make([]int, n)
	order := make([]int, n)
	for i := range clique {
		clique[i] = -1
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return db - da
		}
		return a - b
	})
	var members []int
	next := 0
	for _, v := range order {
		if clique[v] >= 0 {
			continue
		}
		clique[v] = next
		members = append(members[:0], v)
		for _, u := range g.Neighbors(v) {
			if clique[u] >= 0 {
				continue
			}
			ok := true
			for _, m := range members {
				if !g.HasEdge(u, m) {
					ok = false
					break
				}
			}
			if ok {
				clique[u] = next
				members = append(members, u)
			}
		}
		next++
	}
	return clique
}

// adjacencyRows returns g's adjacency as bitset rows of one length, the
// form the protocol runtime keeps H in: bit u of row v is set iff u and v
// are adjacent.
func adjacencyRows(g *graph.Graph) [][]uint64 {
	words := (g.N() + 63) / 64
	rows := make([][]uint64, g.N())
	for v := range rows {
		rows[v] = make([]uint64, words)
		for _, u := range g.Neighbors(v) {
			rows[v][u/64] |= 1 << (uint(u) % 64)
		}
	}
	return rows
}

// preparedDiff describes how two preparations differ in their rows,
// cliques, clique count or node bound, or returns "" when they agree.
func preparedDiff(a, b *Prepared) string {
	switch {
	case a.n != b.n || a.words != b.words:
		return fmt.Sprintf("%d vertices in %d words, want %d in %d", a.n, a.words, b.n, b.words)
	case !slices.Equal(a.arena, b.arena):
		return fmt.Sprintf("rows %x, want %x", a.arena, b.arena)
	case !slices.Equal(a.clique, b.clique):
		return fmt.Sprintf("cliques %v, want %v", a.clique, b.clique)
	case a.ncliques != b.ncliques || a.nodeBound != b.nodeBound:
		return fmt.Sprintf("%d cliques, node bound %d; want %d, %d", a.ncliques, a.nodeBound, b.ncliques, b.nodeBound)
	}
	return ""
}

// checkInduced checks q.PrepareInduced over g's adjacency rows on the
// ascending vertex set vs against Prepare of the subgraph vs induces.
// Reusing one q and one ws across calls checks that neither carries
// anything over from the previous preparation.
func checkInduced(t testing.TB, desc string, g *graph.Graph, vs []int, q *Prepared, ws *Workspace) {
	q.PrepareInduced(adjacencyRows(g), vs, ws)
	sub, _ := g.InducedSubgraph(vs)
	var want Prepared
	want.Prepare(sub, ws)
	if diff := preparedDiff(q, &want); diff != "" {
		t.Fatalf("%s: PrepareInduced on %d of %d vertices: %s", desc, len(vs), g.N(), diff)
	}
}

// checkPreparation checks p, prepared from g, against the list-based
// partition, and then checkInduced on a subset of g's vertices that src
// draws: each vertex kept with one probability drawn uniformly.
func checkPreparation(t testing.TB, desc string, g *graph.Graph, p, q *Prepared, src *rng.Source, ws *Workspace) {
	if want := referenceCliquePartition(g); !slices.Equal(p.clique, want) {
		t.Fatalf("%s: clique partition %v, list-based %v", desc, p.clique, want)
	}
	keep := src.Float64()
	var vs []int
	for v := 0; v < g.N(); v++ {
		if src.Float64() < keep {
			vs = append(vs, v)
		}
	}
	checkInduced(t, desc, g, vs, q, ws)
}

// TestPrepareInducedEdgeCases runs checkPreparation's two checks on fixed
// cases: an empty ball, a singleton in the parent's second word, a
// complete graph (one clique), a ball of the parent's second word only,
// and balls of 63, 64 and 65 vertices of a two-word parent, across the
// one-word boundary of the prepared rows.
func TestPrepareInducedEdgeCases(t *testing.T) {
	var ws Workspace
	var p, q Prepared
	const parentN = 120
	parent := referenceGraph(parentN, 0.3, rng.New(7))
	complete := referenceGraph(9, 1, rng.New(8))
	src := rng.New(9)
	subset := func(k int) []int {
		vs := src.Perm(parentN)[:k]
		slices.Sort(vs)
		return vs
	}
	var second []int
	for v := 64; v < parentN; v++ {
		second = append(second, v)
	}
	for _, g := range []*graph.Graph{parent, complete} {
		p.Prepare(g, &ws)
		if want := referenceCliquePartition(g); !slices.Equal(p.clique, want) {
			t.Fatalf("%d vertices: clique partition %v, list-based %v", g.N(), p.clique, want)
		}
	}
	if p.ncliques != 1 || p.nodeBound != 2*10-1 {
		t.Fatalf("complete graph: %d cliques, node bound %d; want 1, 19", p.ncliques, p.nodeBound)
	}
	for _, c := range []struct {
		desc string
		g    *graph.Graph
		vs   []int
	}{
		{"empty", parent, nil},
		{"singleton", parent, []int{77}},
		{"complete", complete, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"complete, part", complete, []int{1, 3, 4, 8}},
		{"second word", parent, second},
		{"63 of 120", parent, subset(63)},
		{"64 of 120", parent, subset(64)},
		{"65 of 120", parent, subset(65)},
		{"all 120", parent, subset(parentN)},
	} {
		checkInduced(t, c.desc, c.g, c.vs, &q, &ws)
	}
}

// referenceWeights draws one weight vector from the given regime.
func referenceWeights(regime, n int, src *rng.Source) []float64 {
	w := make([]float64, n)
	bases := []float64{src.Float64(), src.Float64(), src.Float64()}
	for i := range w {
		switch regime {
		case 0: // continuous
			w[i] = src.Float64()
		case 1: // all at the unseen-arm index
			w[i] = 2.0
		case 2: // unseen arms mixed with learned ones
			if src.Intn(2) == 0 {
				w[i] = 2.0
			} else {
				w[i] = src.Float64()
			}
		case 3: // quarter steps
			w[i] = float64(src.Intn(9)) / 4
		case 4: // 1-ulp near-ties around a few values
			x := bases[src.Intn(len(bases))]
			for k := src.Intn(3); k > 0; k-- {
				x = math.Nextafter(x, 2)
			}
			w[i] = x
		case 5: // zeros mixed with continuous
			if src.Intn(2) == 0 {
				w[i] = src.Float64()
			}
		case 6: // zeros mixed with small multiples of the least subnormal
			if src.Intn(2) == 0 {
				w[i] = float64(1+src.Intn(7)) * math.SmallestNonzeroFloat64
			}
		case 7: // near MaxFloat64/8, so that sums overflow, and rarely +Inf
			if src.Intn(64) == 0 {
				w[i] = math.Inf(1)
			} else {
				w[i] = (0.5 + src.Float64()/2) * (math.MaxFloat64 / 8)
			}
		}
	}
	return w
}

// referenceDiverging lists the trials of TestRankSearchMatchesReference on
// which the rank-space search returns another set or exhaustion outcome
// than the id-space search. On each, a prune lies within rounding of a tie,
// and the two summation orders put the bound on either side of it: trial
// 1201 (n=75, density 0.1, 1-ulp near-ties, budget 20,000, reference slack
// 0) sums the bound one ulp apart at node 2,596 and returns another
// budget-exceeded incumbent. Any trial not listed must match.
var referenceDiverging = map[int]bool{1201: true}

// referenceDensities are the edge densities the rank-search trials draw.
var referenceDensities = []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7}

// referenceGraph draws a graph on n vertices, each pair an edge with
// probability density.
func referenceGraph(n int, density float64, src *rng.Source) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if src.Float64() < density {
				_ = g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestRankSearchMatchesReference pins the rank-space search to the id-space
// one, and on every graph checks the preparation (checkPreparation, on a
// vertex subset drawn from a stream of its own), on seeded random
// instances: 1–130 vertices (one to three bitset words, so all three
// search bodies), densities from sparse to dense, weight regimes 0–5,
// budgets from 1 to 300 and at 20,000 and 50,000. Then, at n = 63, 64 and
// 65, the last sizes of the one-word body and the first of the two-word
// body, and at n = 127, 128 and 129, the last of the two-word body and the
// first of the slice body, it runs trials in each of those regimes. Last
// come trials in the two extreme regimes, 6 (subnormal) and 7
// (overflowing, with +Inf), held to the first oracle alone: there the
// carried bound's tolerance is its absolute floor, or infinite, so they
// check that every node it cannot settle sums exactly. Four oracles:
//
//   - The id-space search bounding as the rank-space one does, its static
//     bound summed in rank order and, past coverAfter, its cover built a
//     vertex at a time (refSearch.coverBound), must agree bit for bit on
//     every trial: set, exhaustion, node count, slack and gap. The two
//     searches then differ in the static bound's summation order and in
//     how the cover is built, and nothing else.
//   - Wherever the search ends within coverAfter nodes, it never built a
//     cover, and the static-bound id-space search as it was must return
//     the identical set and exhaustion outcome on every trial but those in
//     referenceDiverging, and match node count and slack up to rounding
//     wherever its slack exceeds 1e-9: no comparison is then near enough
//     to a tie for the summation order to flip it.
//   - On 65–128 vertices, the two-word body and the slice body rerun with
//     the tolerance zeroed (zeroTolSolve) must agree bit for bit, exact
//     sums included: the two carry the same estimate by the same float
//     operations in the same order, and build the same covers.
//   - Answers do not depend on the bound (checkSameAnswer): wherever the
//     static-bound id-space search finishes within sameAnswerBudget nodes,
//     whatever the trial's budget, the search returns its set. Where the
//     search finished within coverAfter nodes, the second oracle has
//     already compared the two answers, so checkSameAnswer runs on the
//     trials that passed coverAfter or stopped.
func TestRankSearchMatchesReference(t *testing.T) {
	const trials = 1500
	var ws Workspace
	var p, q Prepared
	subsets := rng.New(2014)
	compared, covered, retraced, same := 0, 0, 0, 0
	check := func(desc string, g *graph.Graph, w []float64, budget int, diverging bool) {
		p.Prepare(g, &ws)
		checkPreparation(t, desc, g, &p, &q, subsets, &ws)
		got := rankSolve(&p, w, budget, &ws)
		if checkPairRetracesSlice(t, desc, &ws, budget) {
			retraced++
		}
		if alt := refSolve(&p, w, budget, true); !reflect.DeepEqual(got, alt) {
			t.Fatalf("%s: rank-space %+v, id-space with rank-order bound %+v", desc, got, alt)
		}
		// A search that finished within coverAfter nodes had its answer
		// compared with the static-bound search's by the second oracle, and
		// that search's answer at any larger budget is the same.
		if (got.nodes > coverAfter || !got.exhausted) && checkSameAnswer(t, desc, &p, w, sameAnswerBudget, &ws) {
			same++
		}
		if got.nodes > coverAfter {
			covered++
			return
		}
		want := refSolve(&p, w, budget, false)
		if diverging {
			t.Logf("%s: set %v exhausted %v after %d nodes, id-space %v exhausted %v after %d nodes (slack %v)",
				desc, got.set, got.exhausted, got.nodes, want.set, want.exhausted, want.nodes, want.slack)
			return
		}
		if !equalIntSlices(got.set, want.set) || got.exhausted != want.exhausted {
			t.Fatalf("%s: set %v exhausted %v, id-space %v exhausted %v (slack %v)",
				desc, got.set, got.exhausted, want.set, want.exhausted, want.slack)
		}
		if got.exhausted {
			same++
		}
		if want.slack <= 1e-9 {
			return
		}
		compared++
		if got.nodes != want.nodes || math.Abs(got.slack-want.slack) > 1e-9 || math.Abs(got.gap-want.gap) > 1e-9 {
			t.Fatalf("%s: %+v, id-space %+v", desc, got, want)
		}
	}
	src := rng.New(2011)
	for trial := 0; trial < trials; trial++ {
		n := 1 + src.Intn(130)
		density := referenceDensities[src.Intn(len(referenceDensities))]
		g := referenceGraph(n, density, src)
		regime := src.Intn(6)
		w := referenceWeights(regime, n, src)
		budget := []int{1 + src.Intn(300), 20000, 50000}[src.Intn(3)]
		desc := fmt.Sprintf("trial %d (n=%d density=%v regime=%d budget=%d)", trial, n, density, regime, budget)
		check(desc, g, w, budget, referenceDiverging[trial])
	}
	if compared < trials/10 {
		t.Fatalf("only %d of %d trials had a reference slack above 1e-9", compared, trials)
	}
	t.Logf("%d of %d trials passed coverAfter nodes; %d retraced the slice body past it; %d compared answers with the static bound",
		covered, trials, retraced, same)
	if covered < trials/10 || retraced < trials/50 || same < trials/2 {
		t.Fatalf("weak coverage: %d trials passed coverAfter, %d retraced past it, %d compared answers", covered, retraced, same)
	}
	src = rng.New(2012)
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		for regime := 0; regime < 6; regime++ {
			for k := 0; k < 4; k++ {
				density := referenceDensities[src.Intn(len(referenceDensities))]
				g := referenceGraph(n, density, src)
				w := referenceWeights(regime, n, src)
				budget := []int{1 + src.Intn(300), 20000, 50000}[src.Intn(3)]
				desc := fmt.Sprintf("boundary trial (n=%d density=%v regime=%d budget=%d)", n, density, regime, budget)
				check(desc, g, w, budget, false)
			}
		}
	}
	src = rng.New(2013)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(130)
		density := referenceDensities[src.Intn(len(referenceDensities))]
		g := referenceGraph(n, density, src)
		regime := 6 + trial%2
		w := referenceWeights(regime, n, src)
		budget := []int{1 + src.Intn(300), 20000, 50000}[src.Intn(3)]
		p.Prepare(g, &ws)
		checkPreparation(t, fmt.Sprintf("extreme trial %d", trial), g, &p, &q, subsets, &ws)
		got := rankSolve(&p, w, budget, &ws)
		if want := refSolve(&p, w, budget, true); !sameBits(got, want) {
			t.Fatalf("extreme trial %d (n=%d density=%v regime=%d budget=%d): rank-space %+v, id-space with rank-order bound %+v",
				trial, n, density, regime, budget, got, want)
		}
	}
}

// FuzzRankSearchMatchesReference fuzzes TestRankSearchMatchesReference's
// first and third oracles: the rank-space search must agree bit for bit
// with the id-space search whose bound is summed in rank order (set,
// exhaustion, node count, slack and gap), and on 65–128 vertices the
// two-word body with the slice body at zero tolerance. It also checks the
// preparation (checkPreparation), on a vertex subset drawn from the seed's
// "subset" split, a stream apart from the graph's and the weights'. The
// inputs choose the graph's seed, n in 1–256 (one to four bitset words, so
// all three search bodies), the edge density (densityRaw/255), a weight
// regime of referenceWeights (regimeRaw % 8) and a budget in 1–65,536.
// Floats are compared by bit pattern (sameBits). The committed corpus
// under testdata/fuzz sits on both body boundaries: at n = 63, 64 and 65,
// between the one-word and two-word bodies, and at n = 127, 128 and 129,
// between the two-word and slice bodies, in the all-2.0 and 1-ulp
// near-tie regimes, with one entry each at n = 64, 65, 128 and 129 in the
// subnormal and overflowing regimes.
func FuzzRankSearchMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, regimeRaw uint8, budgetRaw uint16) {
		n := 1 + int(nRaw)
		density := float64(densityRaw) / 255
		regime := int(regimeRaw) % 8
		budget := 1 + int(budgetRaw)
		src := rng.New(seed)
		g := referenceGraph(n, density, src)
		w := referenceWeights(regime, n, src)
		var ws Workspace
		var p, q Prepared
		p.Prepare(g, &ws)
		checkPreparation(t, fmt.Sprintf("n=%d density=%v", n, density), g, &p, &q, rng.New(seed).Split("subset"), &ws)
		desc := fmt.Sprintf("n=%d density=%v regime=%d budget=%d", n, density, regime, budget)
		got := rankSolve(&p, w, budget, &ws)
		checkPairRetracesSlice(t, desc, &ws, budget)
		if want := refSolve(&p, w, budget, true); !sameBits(got, want) {
			t.Fatalf("%s: rank-space %+v, id-space with rank-order bound %+v", desc, got, want)
		}
	})
}
