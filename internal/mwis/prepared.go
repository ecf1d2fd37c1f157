package mwis

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"multihopbandit/internal/graph"
)

// Prepared is the weight-independent preprocessing of one MWIS graph: its
// adjacency as bitsets and the greedy clique partition the exact solver's
// upper bound uses. Both depend only on the graph structure, so a caller
// that repeatedly solves the same graph under drifting weights (the
// protocol decider: a LocalLeader's candidate ball usually keeps its shape
// between decisions while the index weights move) prepares once and pays
// per solve only for relabelling them by weight and for the branch and
// bound.
//
// A Prepared owns its storage — it stays valid even when the graph it was
// prepared from lives in reused arena memory. Prepare reuses the previous
// storage where capacities allow.
type Prepared struct {
	n        int
	words    int
	adj      []bitset
	arena    bitset
	clique   []int
	ncliques int

	// nodeBound bounds the branch-and-bound tree size with pruning
	// disabled: the unpruned search reaches every independent set as
	// exactly one leaf and every internal node has two children, so
	// #nodes = 2·#IS − 1, and #IS ≤ Π_cliques(|c|+1) since an independent
	// set holds at most one vertex per clique. A budget ≥ nodeBound
	// therefore guarantees the search exhausts under ANY weight vector —
	// the precondition for the uniqueness-gap slack certificate (see
	// Hybrid.SolvePrepared). Saturates at math.MaxInt on overflow.
	nodeBound int
}

// N returns the prepared graph's vertex count.
func (p *Prepared) N() int { return p.n }

// Prepare fills p from g, replacing any previous preparation. The
// workspace supplies the clique-partition scratch.
func (p *Prepared) Prepare(g *graph.Graph, ws *Workspace) {
	n := g.N()
	p.n = n
	p.words = (n + 63) / 64
	need := n * p.words
	if cap(p.arena) < need {
		p.arena = make(bitset, need)
	}
	p.arena = p.arena[:need]
	for i := range p.arena {
		p.arena[i] = 0
	}
	p.adj = growInts2(&p.adj, n)
	for v := 0; v < n; v++ {
		row := p.arena[v*p.words : (v+1)*p.words : (v+1)*p.words]
		for _, u := range g.Neighbors(v) {
			row.set(u)
		}
		p.adj[v] = row
	}
	p.clique = append(p.clique[:0], greedyCliquePartition(g, ws)...)
	p.ncliques = 0
	for _, c := range p.clique {
		if c+1 > p.ncliques {
			p.ncliques = c + 1
		}
	}
	sizes := growInts(&ws.order, p.ncliques)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range p.clique {
		sizes[c]++
	}
	prod, ok := 1, true
	for _, s := range sizes {
		if prod > (math.MaxInt-1)/2/(s+1) {
			ok = false
			break
		}
		prod *= s + 1
	}
	if ok {
		p.nodeBound = 2*prod - 1
	} else {
		p.nodeBound = math.MaxInt
	}
}

// SolvePrepared is Hybrid's body over a prepared graph: a budgeted exact
// search first (its clique-partition bound and adjacency come from p),
// falling back to the greedy heuristic only when the budget runs out. It
// returns the allocating Hybrid body's output on the same graph and weights
// (TestSolvePreparedMatchesSolve), except where the greedy set ties the
// exhaustive search's to within rounding: that body compared float sums
// and could pick the greedy set, this one keeps the search's
// (TestHybridKeepsExhaustiveSetOnRoundingTie). The returned slice aliases
// ws.
func (h Hybrid) SolvePrepared(p *Prepared, w []float64, ws *Workspace) ([]int, error) {
	// Pessimistic defaults: every path that does not complete the exact
	// search leaves the slack certificate void (see Workspace.TrackSlack),
	// and only a search that runs can stop at the budget.
	ws.Slack = 0
	ws.BudgetStop = false
	if len(w) != p.n {
		return nil, fmt.Errorf("mwis: %d weights for %d vertices", len(w), p.n)
	}
	if err := checkWeights(w); err != nil {
		return nil, err
	}
	budget, maxExact := h.limits()
	if p.n > maxExact {
		return greedyPrepared(p, w, ws), nil
	}
	exactSet, exhausted := ws.exact(p, w, budget, ws.TrackSlack)
	ws.BudgetStop = !exhausted
	if exhausted {
		if ws.TrackSlack {
			// Two independent replay certificates; the weaker conditions
			// of either suffice, so the published slack is their maximum.
			//
			// Traversal slack (st.slack): drift below it flips no
			// comparison, so the search replays the identical traversal —
			// valid under any budget that let this search exhaust.
			//
			// Uniqueness gap (st.bestW − st.u): drift D1 strictly below the
			// gap keeps the returned set the unique optimum, because for
			// any other independent set T, w'(S0) − w'(T) ≥ (bestW − u) − D1
			// > 0 (S0\T and T\S0 are disjoint, so their drifts jointly
			// spend the single D1 allowance — no halving). A unique strict
			// optimum is returned by ANY exhaustive run regardless of
			// traversal order, so this certificate additionally needs
			// exhaustion to be guaranteed a priori under the drifted
			// weights: nodeBound ≤ budget (or an unlimited budget). Exact
			// ties deposit bestW into u, collapsing the gap to zero, so
			// bit-identity with the from-scratch solve is preserved.
			st := &ws.st
			ws.Slack = st.slack
			if budget <= 0 || p.nodeBound <= budget {
				if gap := st.bestW - st.u; gap > ws.Slack {
					ws.Slack = gap
				}
			}
			// Both arguments hold in exact arithmetic, but every margin
			// above is a difference of floating-point sums of up to 2n
			// weights, and so is the caller's drift; each is off by at
			// most about n·ε·Σw. A drift that closes a margin exactly can
			// then still read as strictly below it (two sets a few ulps
			// apart that the drift makes tie). Deflating the slack by a
			// bound on those errors keeps the certificate sound.
			ws.Slack = math.Max(0, ws.Slack-roundingError(w))
		}
		return exactSet, nil
	}
	greedySet := greedyPrepared(p, w, ws)
	exactW, greedyW := 0.0, 0.0
	for _, v := range exactSet {
		exactW += w[v]
	}
	for _, v := range greedySet {
		greedyW += w[v]
	}
	if exactW >= greedyW {
		return exactSet, nil
	}
	return greedySet, nil
}

// roundingError bounds, with a wide margin, the rounding error of any sum
// of up to 2·len(w) of the weights, of a difference of two such sums, and
// of an L1 drift of comparable size: 16·(n+1)·ε·Σw.
func roundingError(w []float64) float64 {
	total := 0.0
	for _, x := range w {
		total += x
	}
	return 16 * float64(len(w)+1) * 0x1p-52 * total
}

// greedyPrepared is Greedy's body over the prepared adjacency: identical
// selection (max weight first, ties toward the lower id), with closed
// neighborhoods removed via the adjacency bitsets.
func greedyPrepared(p *Prepared, w []float64, ws *Workspace) []int {
	n := p.n
	order := growInts(&ws.order, n)
	for i := range order {
		order[i] = i
	}
	sortByWeight(order, w)
	removed := growBools(&ws.removed, n)
	out := ws.gout[:0]
	for _, v := range order {
		if removed[v] {
			continue
		}
		out = append(out, v)
		removed[v] = true
		for wi, word := range p.adj[v] {
			for word != 0 {
				removed[wi*64+bits.TrailingZeros64(word)] = true
				word &= word - 1
			}
		}
	}
	sort.Ints(out)
	ws.gout = out
	return out
}
