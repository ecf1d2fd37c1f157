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
//     (TestRankSearchMatchesReference).
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
// sumByRank and maxima fields, and branch calling bound where it called
// upperBound. With sumByRank unset, bound is upperBound.

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

// empty reports whether b has no set bit; refSearch.branch uses it.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
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
// tracking both certificates.
func refSolve(p *Prepared, w []float64, budget int, sumByRank bool) refResult {
	n, words := p.n, p.words
	st := &refSearch{
		n: n, adj: p.adj, w: w, clique: p.clique, ncliques: p.ncliques,
		budget: budget, track: true, slack: math.Inf(1), sumByRank: sumByRank,
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
// one on seeded random instances: 1–130 vertices (one to three bitset
// words), densities from sparse to dense, weight regimes 0–5, budgets from
// 1 to 300 and at 20,000 and 50,000. Then, at n = 63, 64 and 65, the last
// sizes of the one-word body and the first of the multi-word body, it runs
// trials in each of those regimes. Last come trials in the two extreme
// regimes, 6 (subnormal) and 7 (overflowing, with +Inf), held to the first
// oracle alone: there the carried bound's tolerance is its absolute floor,
// or infinite, so they check that every node it cannot settle sums
// exactly. Two oracles:
//
//   - The id-space search with its bound summed in rank order must agree bit
//     for bit on every trial: set, exhaustion, node count, slack and gap.
//     The two searches then differ in the bound's summation order and
//     nothing else.
//   - The id-space search as it was must return the identical set and
//     exhaustion outcome on every trial but those in referenceDiverging,
//     and match node count and slack up to rounding wherever its slack
//     exceeds 1e-9: no comparison is then near enough to a tie for the
//     summation order to flip it.
func TestRankSearchMatchesReference(t *testing.T) {
	const trials = 1500
	var ws Workspace
	var p Prepared
	compared := 0
	check := func(desc string, g *graph.Graph, w []float64, budget int, diverging bool) {
		p.Prepare(g, &ws)
		got := rankSolve(&p, w, budget, &ws)
		if alt := refSolve(&p, w, budget, true); !reflect.DeepEqual(got, alt) {
			t.Fatalf("%s: rank-space %+v, id-space with rank-order bound %+v", desc, got, alt)
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
	src = rng.New(2012)
	for _, n := range []int{63, 64, 65} {
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
		got := rankSolve(&p, w, budget, &ws)
		if want := refSolve(&p, w, budget, true); !sameBits(got, want) {
			t.Fatalf("extreme trial %d (n=%d density=%v regime=%d budget=%d): rank-space %+v, id-space with rank-order bound %+v",
				trial, n, density, regime, budget, got, want)
		}
	}
}

// FuzzRankSearchMatchesReference fuzzes TestRankSearchMatchesReference's
// first oracle: the rank-space search must agree bit for bit with the
// id-space search whose bound is summed in rank order (set, exhaustion,
// node count, slack and gap). The inputs choose the graph's seed, n in
// 1–130, the edge density (densityRaw/255), a weight regime of
// referenceWeights (regimeRaw % 8) and a budget in 1–65,536. Floats are
// compared by bit pattern (sameBits). The committed corpus under
// testdata/fuzz sits at n = 63, 64 and 65, across the boundary between the
// one-word and multi-word bodies, in the all-2.0 and 1-ulp near-tie
// regimes, with one entry each at n = 64 and 65 in the subnormal and
// overflowing regimes.
func FuzzRankSearchMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, regimeRaw uint8, budgetRaw uint16) {
		n := 1 + int(nRaw)%130
		density := float64(densityRaw) / 255
		regime := int(regimeRaw) % 8
		budget := 1 + int(budgetRaw)
		src := rng.New(seed)
		g := referenceGraph(n, density, src)
		w := referenceWeights(regime, n, src)
		var ws Workspace
		var p Prepared
		p.Prepare(g, &ws)
		got := rankSolve(&p, w, budget, &ws)
		if want := refSolve(&p, w, budget, true); !sameBits(got, want) {
			t.Fatalf("n=%d density=%v regime=%d budget=%d: rank-space %+v, id-space with rank-order bound %+v",
				n, density, regime, budget, got, want)
		}
	})
}
