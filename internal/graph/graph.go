// Package graph implements the undirected-graph substrate used throughout the
// repository: adjacency-list graphs, breadth-first search, r-hop
// neighborhoods J_{G,r}(v), independent-set checks, greedy coloring, and
// connectivity queries.
//
// The paper manipulates two graphs built on this substrate: the original
// conflict graph G (a unit-disk graph over nodes) and the extended conflict
// graph H (over node×channel virtual vertices, see package extgraph).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph over vertices 0..n-1 stored as adjacency
// lists. Neighbor lists are kept sorted and duplicate-free.
//
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	adj [][]int
}

// New returns an edgeless graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are ignored. It returns an error if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return nil
	}
	if !g.HasEdge(u, v) {
		g.adj[u] = insertSorted(g.adj[u], v)
		g.adj[v] = insertSorted(g.adj[v], u)
	}
	return nil
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) || u == v {
		return false
	}
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified by the caller.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// AverageDegree returns the mean vertex degree, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.adj))
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for v, nb := range g.adj {
		c.adj[v] = append([]int(nil), nb...)
	}
	return c
}

// BFSDist returns the hop distance d_G(src, v) for every vertex v, with -1
// for unreachable vertices.
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Ball returns J_{G,r}(v): all vertices within hop distance r of v,
// including v itself, in sorted order.
func (g *Graph) Ball(v, r int) []int {
	if v < 0 || v >= len(g.adj) || r < 0 {
		return nil
	}
	dist := g.boundedBFS(v, r)
	out := make([]int, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// boundedBFS runs BFS from v truncated at radius r and returns the map
// vertex -> distance for all reached vertices.
func (g *Graph) boundedBFS(v, r int) map[int]int {
	dist := map[int]int{v: 0}
	queue := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, w := range g.adj[u] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// HopDist returns d_G(u, v), or -1 if v is unreachable from u.
func (g *Graph) HopDist(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSDist(u)[v]
}

// IsIndependent reports whether no two vertices of set are adjacent.
// Duplicate vertices in set are tolerated.
func (g *Graph) IsIndependent(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// Connected reports whether the graph is connected (true for 0- and 1-vertex
// graphs).
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	for _, d := range g.BFSDist(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components as slices of sorted vertex
// ids, ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	for v := range g.adj {
		if seen[v] {
			continue
		}
		var comp []int
		queue := []int{v}
		seen[v] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// GreedyColoring colors vertices in decreasing-degree order and returns the
// color of each vertex plus the number of colors used. It upper-bounds the
// chromatic number χ(G), which the paper uses to reason about whether the
// independence number of H reaches N (it does iff χ(G) ≤ M).
func (g *Graph) GreedyColoring() (colors []int, numColors int) {
	n := len(g.adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(g.adj[order[a]]), len(g.adj[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	colors = make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, n+1)
	for _, v := range order {
		for i := range used {
			used[i] = false
		}
		for _, w := range g.adj[v] {
			if colors[w] >= 0 {
				used[colors[w]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return colors, numColors
}

// InducedSubgraph returns the subgraph induced by the given vertices and the
// mapping from new vertex id to original id. Vertices are deduplicated and
// sorted.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	uniq := append([]int(nil), vertices...)
	sort.Ints(uniq)
	uniq = dedupSorted(uniq)
	index := make(map[int]int, len(uniq))
	for i, v := range uniq {
		index[v] = i
	}
	sub := New(len(uniq))
	// Two passes instead of per-edge AddEdge: count degrees for exact-size
	// adjacency allocations, then fill with plain appends. uniq is sorted
	// and each g.adj[v] is sorted, so the mapped neighbor ids arrive in
	// ascending order and the append preserves the sorted-adjacency
	// invariant — the result is identical to repeated AddEdge, without its
	// per-insert binary search and memmove (this is the protocol
	// simulator's hottest allocation site).
	deg := make([]int, len(uniq))
	for i, v := range uniq {
		for _, w := range g.adj[v] {
			if _, ok := index[w]; ok {
				deg[i]++
			}
		}
	}
	for i, d := range deg {
		if d > 0 {
			sub.adj[i] = make([]int, 0, d)
		}
	}
	for i, v := range uniq {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok {
				sub.adj[i] = append(sub.adj[i], j)
			}
		}
	}
	return sub, uniq
}

func dedupSorted(s []int) []int {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
