// Package extgraph builds the extended conflict graph H = (Ṽ, Ẽ) of the
// paper's Section III from an original conflict graph G and a channel count
// M.
//
// For every node i of G and channel j ∈ [0, M) there is a virtual vertex
// v_{i,j}. The M virtual vertices of a node form a clique (a node can use at
// most one channel per round), and v_{i,j} is adjacent to v_{p,j} whenever
// (i, p) is an edge of G (same-channel interference). An independent set of H
// therefore corresponds one-to-one to a feasible strategy: a conflict-free
// assignment of at most one channel to each node.
package extgraph

import (
	"fmt"

	"multihopbandit/internal/graph"
)

// Vertex identifies a virtual vertex v_{i,j} of H by master node and channel.
type Vertex struct {
	// Node is the master node index i in G.
	Node int
	// Channel is the channel index j in [0, M).
	Channel int
}

// Extended is the extended conflict graph H along with the index mappings
// between virtual-vertex ids, (node, channel) pairs, and the flat arm index
// k = i·M + j used by the learning policies.
type Extended struct {
	// N is the number of nodes of G.
	N int
	// M is the number of channels.
	M int
	// H is the extended conflict graph over N·M virtual vertices.
	H *graph.Graph
	// G is the original conflict graph the extension was built from.
	G *graph.Graph
}

// Build constructs H from the conflict graph g and channel count m.
func Build(g *graph.Graph, m int) (*Extended, error) {
	if g == nil {
		return nil, fmt.Errorf("extgraph: nil conflict graph")
	}
	if m <= 0 {
		return nil, fmt.Errorf("extgraph: channel count must be positive, got %d", m)
	}
	n := g.N()
	h := graph.New(n * m)
	ext := &Extended{N: n, M: m, H: h, G: g}
	for i := 0; i < n; i++ {
		// Clique among the node's own virtual vertices.
		for j := 0; j < m; j++ {
			for k := j + 1; k < m; k++ {
				_ = h.AddEdge(ext.ID(i, j), ext.ID(i, k))
			}
		}
		// Same-channel interference edges; add each once (i < p).
		for _, p := range g.Neighbors(i) {
			if p < i {
				continue
			}
			for j := 0; j < m; j++ {
				_ = h.AddEdge(ext.ID(i, j), ext.ID(p, j))
			}
		}
	}
	return ext, nil
}

// ID returns the vertex id of v_{node,channel} in H. This is also the flat
// arm index k = node·M + channel of the learning policies (the paper's
// k = (i-1)·M + s_{x,i} in 1-based notation).
func (e *Extended) ID(node, channel int) int { return node*e.M + channel }

// VertexOf returns the (node, channel) pair of a vertex id.
func (e *Extended) VertexOf(id int) Vertex {
	return Vertex{Node: id / e.M, Channel: id % e.M}
}

// Node returns the master node of a vertex id.
func (e *Extended) Node(id int) int { return id / e.M }

// Channel returns the channel index of a vertex id.
func (e *Extended) Channel(id int) int { return id % e.M }

// K returns the number of arms, N·M.
func (e *Extended) K() int { return e.N * e.M }

// Strategy is a channel assignment: Strategy[i] is the channel selected by
// node i, or NoChannel if node i stays silent this round. A strategy is
// feasible when the selected virtual vertices form an independent set of H.
type Strategy []int

// NoChannel marks a node that does not access any channel in a round.
const NoChannel = -1

// NewStrategy returns an all-silent strategy for n nodes.
func NewStrategy(n int) Strategy {
	s := make(Strategy, n)
	for i := range s {
		s[i] = NoChannel
	}
	return s
}

// Vertices returns the virtual-vertex ids selected by the strategy, in node
// order.
func (e *Extended) Vertices(s Strategy) []int {
	out := make([]int, 0, len(s))
	for node, ch := range s {
		if ch != NoChannel {
			out = append(out, e.ID(node, ch))
		}
	}
	return out
}

// StrategyFromVertices converts a set of virtual-vertex ids into a Strategy.
// It returns an error if two vertices share a master node (which would be a
// clique violation) or an id is out of range.
func (e *Extended) StrategyFromVertices(ids []int) (Strategy, error) {
	s := make(Strategy, e.N)
	if err := e.FillStrategy(s, ids); err != nil {
		return nil, err
	}
	return s, nil
}

// FillStrategy is StrategyFromVertices into the caller's s, which must have
// length N: it overwrites every entry, so s's previous contents do not
// matter. On an error s holds a partial assignment.
func (e *Extended) FillStrategy(s Strategy, ids []int) error {
	if len(s) != e.N {
		return fmt.Errorf("extgraph: strategy of length %d for %d nodes", len(s), e.N)
	}
	for i := range s {
		s[i] = NoChannel
	}
	for _, id := range ids {
		if id < 0 || id >= e.K() {
			return fmt.Errorf("extgraph: vertex id %d out of range [0,%d)", id, e.K())
		}
		v := e.VertexOf(id)
		if s[v.Node] != NoChannel {
			return fmt.Errorf("extgraph: node %d assigned two channels (%d and %d)",
				v.Node, s[v.Node], v.Channel)
		}
		s[v.Node] = v.Channel
	}
	return nil
}

// Feasible reports whether the strategy's selected vertices form an
// independent set of H (equivalently: no two conflicting nodes share a
// channel).
func (e *Extended) Feasible(s Strategy) bool {
	if len(s) != e.N {
		return false
	}
	for i, ch := range s {
		if ch == NoChannel {
			continue
		}
		if ch < 0 || ch >= e.M {
			return false
		}
		for _, p := range e.G.Neighbors(i) {
			if p > i && s[p] == ch {
				return false
			}
		}
	}
	return true
}

// Ball returns J_{H,r}(v): the r-hop neighborhood of vertex v in H,
// including v, sorted.
func (e *Extended) Ball(v, r int) []int { return e.H.Ball(v, r) }

// GrowthBound returns the paper's Theorem 2 bound M·(2r+1)² on the number of
// independent vertices within any r-hop neighborhood of H.
func (e *Extended) GrowthBound(r int) int {
	d := 2*r + 1
	return e.M * d * d
}
