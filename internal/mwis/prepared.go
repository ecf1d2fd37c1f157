package mwis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"multihopbandit/internal/graph"
)

// Prepared is the weight-independent preprocessing of one MWIS graph: its
// adjacency as bitset rows and the greedy clique partition the exact
// solver's upper bound uses. Both depend only on the graph structure, so a
// caller that solves the same graph under drifting weights prepares once
// and pays per solve only for relabelling them by weight and for the branch
// and bound. The protocol decider keeps one per leader, but a leader's
// candidate ball often changes between its decisions: on paper-scale
// about a third of the leader re-solves are memo misses that prepare anew
// (the root package's TestDecideWorkGolden pins 310 of 999), which
// PrepareInduced serves from the runtime's adjacency rows.
//
// A Prepared owns its storage — it stays valid even when the graph it was
// prepared from lives in reused arena memory. Prepare and PrepareInduced
// reuse the previous storage where capacities allow.
type Prepared struct {
	n        int
	words    int
	arena    bitset // row v, v's neighbours, is arena[v*words:(v+1)*words]
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

// row returns vertex v's adjacency row.
func (p *Prepared) row(v int) bitset {
	return p.arena[v*p.words : (v+1)*p.words : (v+1)*p.words]
}

// Prepare fills p from g, replacing any previous preparation. The
// workspace supplies the clique partition's scratch.
func (p *Prepared) Prepare(g *graph.Graph, ws *Workspace) {
	p.fillRows(g)
	p.partition(ws)
}

// fillRows sizes p for g and fills its adjacency rows from g's lists. It
// leaves the clique partition stale: Greedy reads the rows alone.
func (p *Prepared) fillRows(g *graph.Graph) {
	p.reset(g.N())
	for v := 0; v < p.n; v++ {
		row := p.row(v)
		for _, u := range g.Neighbors(v) {
			row.set(u)
		}
	}
}

// graph rebuilds p's graph as adjacency lists, for solvers without a body
// over prepared rows.
func (p *Prepared) graph() *graph.Graph {
	g := graph.New(p.n)
	for v := 0; v < p.n; v++ {
		row := p.row(v)
		for u := row.next(v + 1); u >= 0; u = row.next(u + 1) {
			_ = g.AddEdge(v, u) // cannot fail: both ends are below p.n
		}
	}
	return g
}

// validate is Instance.Validate for weights over p.
func (p *Prepared) validate(w []float64) error {
	if len(w) != p.n {
		return fmt.Errorf("mwis: %d weights for %d vertices", len(w), p.n)
	}
	return checkWeights(w)
}

// PrepareInduced fills p with the subgraph that vs induces in a parent
// graph given by its adjacency rows (bit u of rows[v] is set iff u and v
// are adjacent), replacing any previous preparation. vs must be ascending
// and duplicate-free. Vertex i of the result is vs[i], the vertex order
// of the parent's InducedSubgraph(vs), and p is what Prepare of that
// subgraph gives, without building it: row i is rows[vs[i]] masked to the
// ball, each surviving bit renumbered to its local id. The workspace
// supplies the mask, the renumbering and the clique partition's scratch.
func (p *Prepared) PrepareInduced(rows [][]uint64, vs []int, ws *Workspace) {
	p.reset(len(vs))
	if p.n > 0 {
		// Both buffers span the parent, so that a workspace allocates
		// them once. ws.ball is all-zero between calls, and ws.local is
		// read only at the ball's bits, which this call has just written.
		if len(ws.ball) < len(rows[vs[0]]) {
			ws.ball = make(bitset, len(rows[vs[0]]))
		}
		ball, local := ws.ball, growInts(&ws.local, len(rows))
		lo, hi := vs[0]/64, vs[p.n-1]/64
		for i, v := range vs {
			ball.set(v)
			local[v] = i
		}
		for i, v := range vs {
			row, parent := p.row(i), rows[v]
			for wi := lo; wi <= hi; wi++ {
				for word := parent[wi] & ball[wi]; word != 0; word &= word - 1 {
					row.set(local[wi*64+bits.TrailingZeros64(word)])
				}
			}
		}
		clear(ball[lo : hi+1])
	}
	p.partition(ws)
}

// reset sizes p for n vertices with every row empty.
func (p *Prepared) reset(n int) {
	p.n = n
	p.words = (n + 63) / 64
	need := n * p.words
	if cap(p.arena) < need {
		p.arena = make(bitset, need)
	}
	p.arena = p.arena[:need]
	clear(p.arena)
}

// partition fills p's greedy clique partition from its rows, and nodeBound
// from the partition. It scans the vertices by degree descending, ties
// toward the lower id, through a counting sort: the one permutation any
// sort under that total order gives. Each unassigned vertex v starts a
// clique whose candidates are its unassigned neighbours; they are taken in
// ascending id, and each one that joins keeps only the candidates adjacent
// to it. A neighbour thus joins iff it is unassigned and adjacent to every
// earlier member, the test of the list walk this replaced (kept as
// referenceCliquePartition in the tests), so the partition is the same.
func (p *Prepared) partition(ws *Workspace) {
	n, words := p.n, p.words
	degree := growInts(&ws.degree, n)
	// start[d] counts the vertices of degree d, then becomes where their
	// run begins in the order: degree n first, ids ascending in each run.
	start := growInts(&ws.start, n+1)
	clear(start)
	for v := range degree {
		d := 0
		for _, word := range p.row(v) {
			d += bits.OnesCount64(word)
		}
		degree[v] = d
		start[d]++
	}
	for d, pos := n, 0; d >= 0; d-- {
		pos, start[d] = pos+start[d], pos
	}
	order := growInts(&ws.order, n)
	for v, d := range degree {
		order[start[d]] = v
		start[d]++
	}
	clique := growInts(&p.clique, n)
	sets := growBitset(&ws.cover, 2*words)
	assigned, common := sets[:words], sets[words:]
	clear(assigned)
	// prod is Π(|c|+1) over the cliques so far, or 0 once 2·prod − 1
	// would overflow.
	p.ncliques = 0
	prod := 1
	for _, v := range order {
		if assigned[v/64]&(1<<(uint(v)%64)) != 0 {
			continue
		}
		c := p.ncliques
		p.ncliques++
		clique[v] = c
		assigned.set(v)
		p.row(v).andNotInto(assigned, common)
		size := 1
		for u := common.next(0); u >= 0; u = common.next(u + 1) {
			clique[u] = c
			assigned.set(u)
			size++
			for i, word := range p.row(u) {
				common[i] &= word
			}
		}
		if prod > 0 && prod <= (math.MaxInt-1)/2/(size+1) {
			prod *= size + 1
		} else {
			prod = 0
		}
	}
	p.nodeBound = math.MaxInt
	if prod > 0 {
		p.nodeBound = 2*prod - 1
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
	if err := p.validate(w); err != nil {
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

// SolveOn runs solver s on the prepared graph p under weights w, drawing
// its buffers from ws: the one local-solve entry of a caller that keeps
// its graphs prepared, as the protocol decider keeps one ball per leader.
// Each solver runs its own body. Hybrid runs SolvePrepared, with the slack
// certificate when ws.TrackSlack is set; Exact runs its search over p
// under its MaxNodes guard and Budget; Greedy runs its selection over p's
// rows; any other solver runs Solve on a graph rebuilt from p's rows. A
// search that stops at its budget sets ws.BudgetStop and returns its set
// with a nil error. Every solver but Hybrid leaves ws.Slack at 0. The
// returned set aliases ws, except another solver's, which is its own.
func SolveOn(s Solver, p *Prepared, w []float64, ws *Workspace) ([]int, error) {
	ws.Slack, ws.BudgetStop = 0, false
	switch s := s.(type) {
	case Hybrid:
		return s.SolvePrepared(p, w, ws)
	case Greedy:
		if err := p.validate(w); err != nil {
			return nil, err
		}
		return greedyPrepared(p, w, ws), nil
	case Exact:
		if err := p.validate(w); err != nil {
			return nil, err
		}
		if err := s.checkSize(p.n); err != nil {
			return nil, err
		}
		set, exhausted := ws.exact(p, w, s.Budget, false)
		ws.BudgetStop = !exhausted
		return set, nil
	}
	set, err := s.Solve(Instance{G: p.graph(), W: w})
	if errors.Is(err, ErrBudgetExceeded) {
		ws.BudgetStop, err = true, nil
	}
	return set, err
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
	SortByWeight(order, w)
	removed := growBools(&ws.removed, n)
	out := ws.gout[:0]
	for _, v := range order {
		if removed[v] {
			continue
		}
		out = append(out, v)
		removed[v] = true
		for wi, word := range p.row(v) {
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
