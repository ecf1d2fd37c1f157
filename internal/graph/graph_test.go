package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"multihopbandit/internal/rng"
)

// path returns a path graph 0-1-2-...-n-1.
func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// cycle returns a cycle graph over n vertices.
func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	g := path(t, n)
	if err := g.AddEdge(n-1, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGraph returns an Erdős–Rényi G(n, p) graph.
func randomGraph(n int, p float64, src *rng.Source) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if src.Float64() < p {
				_ = g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.NumEdges() != 0 {
		t.Fatalf("New(5): N=%d edges=%d", g.N(), g.NumEdges())
	}
}

func TestNewNegative(t *testing.T) {
	if g := New(-3); g.N() != 0 {
		t.Fatalf("New(-3).N() = %d, want 0", g.N())
	}
}

func TestAddEdgeAndHasEdge(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edge (0,2) missing")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("phantom edge (0,1)")
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestAddEdgeSelfLoopIgnored(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.HasEdge(1, 1) {
		t.Fatal("self-loop was stored")
	}
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	_ = g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after duplicate inserts, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong after duplicate inserts")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 1, 3, 2} {
		_ = g.AddEdge(0, v)
	}
	want := []int{1, 2, 3, 5}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestDegreeStats(t *testing.T) {
	g := path(t, 4) // degrees 1,2,2,1
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AverageDegree(); got != 1.5 {
		t.Fatalf("AverageDegree = %v, want 1.5", got)
	}
}

func TestAverageDegreeEmpty(t *testing.T) {
	if got := New(0).AverageDegree(); got != 0 {
		t.Fatalf("AverageDegree of empty graph = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := cycle(t, 5)
	c := g.Clone()
	_ = c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("Clone shares adjacency storage with original")
	}
	if !c.HasEdge(0, 2) || !c.HasEdge(0, 1) {
		t.Fatal("clone missing edges")
	}
}

func TestBFSDistPath(t *testing.T) {
	g := path(t, 5)
	want := []int{0, 1, 2, 3, 4}
	if got := g.BFSDist(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("BFSDist(0) = %v, want %v", got, want)
	}
}

func TestBFSDistUnreachable(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	d := g.BFSDist(0)
	if d[2] != -1 {
		t.Fatalf("unreachable vertex distance = %d, want -1", d[2])
	}
}

func TestBFSDistBadSource(t *testing.T) {
	g := New(2)
	d := g.BFSDist(5)
	if d[0] != -1 || d[1] != -1 {
		t.Fatalf("BFSDist with bad source = %v", d)
	}
}

func TestHopDist(t *testing.T) {
	g := cycle(t, 6)
	if got := g.HopDist(0, 3); got != 3 {
		t.Fatalf("HopDist(0,3) = %d, want 3", got)
	}
	if got := g.HopDist(0, 5); got != 1 {
		t.Fatalf("HopDist(0,5) = %d, want 1", got)
	}
	if got := g.HopDist(2, 2); got != 0 {
		t.Fatalf("HopDist(2,2) = %d, want 0", got)
	}
}

func TestBallPath(t *testing.T) {
	g := path(t, 7)
	tests := []struct {
		v, r int
		want []int
	}{
		{3, 0, []int{3}},
		{3, 1, []int{2, 3, 4}},
		{3, 2, []int{1, 2, 3, 4, 5}},
		{0, 2, []int{0, 1, 2}},
		{3, 100, []int{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, tt := range tests {
		if got := g.Ball(tt.v, tt.r); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Ball(%d,%d) = %v, want %v", tt.v, tt.r, got, tt.want)
		}
	}
}

func TestBallInvalid(t *testing.T) {
	g := path(t, 3)
	if got := g.Ball(-1, 2); got != nil {
		t.Fatalf("Ball(-1,2) = %v, want nil", got)
	}
	if got := g.Ball(0, -1); got != nil {
		t.Fatalf("Ball(0,-1) = %v, want nil", got)
	}
}

func TestBallMonotoneProperty(t *testing.T) {
	src := rng.New(11)
	f := func(seed int64) bool {
		g := randomGraph(20, 0.15, rng.New(seed))
		v := src.Intn(20)
		prev := 0
		for r := 0; r <= 5; r++ {
			ball := g.Ball(v, r)
			if len(ball) < prev {
				return false
			}
			// Every member must be within r hops.
			for _, u := range ball {
				if d := g.HopDist(v, u); d < 0 || d > r {
					return false
				}
			}
			prev = len(ball)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBallMatchesBFSDist(t *testing.T) {
	g := randomGraph(40, 0.1, rng.New(5))
	dist := g.BFSDist(7)
	ball := g.Ball(7, 3)
	inBall := map[int]bool{}
	for _, u := range ball {
		inBall[u] = true
	}
	for v, d := range dist {
		want := d >= 0 && d <= 3
		if inBall[v] != want {
			t.Fatalf("vertex %d: dist=%d inBall=%v", v, d, inBall[v])
		}
	}
}

func TestIsIndependent(t *testing.T) {
	g := cycle(t, 5)
	if !g.IsIndependent([]int{0, 2}) {
		t.Fatal("{0,2} should be independent in C5")
	}
	if g.IsIndependent([]int{0, 1}) {
		t.Fatal("{0,1} should not be independent in C5")
	}
	if !g.IsIndependent(nil) {
		t.Fatal("empty set should be independent")
	}
	if !g.IsIndependent([]int{3}) {
		t.Fatal("singleton should be independent")
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs must be connected")
	}
	g := path(t, 4)
	if !g.Connected() {
		t.Fatal("path should be connected")
	}
	h := New(4)
	_ = h.AddEdge(0, 1)
	if h.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(4, 5)
	comps := g.Components()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("Components = %v, want %v", comps, want)
	}
}

func TestGreedyColoringProper(t *testing.T) {
	g := randomGraph(50, 0.2, rng.New(3))
	colors, num := g.GreedyColoring()
	if num <= 0 {
		t.Fatal("no colors used on non-empty graph")
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 || colors[v] >= num {
			t.Fatalf("vertex %d has color %d outside [0,%d)", v, colors[v], num)
		}
		for _, u := range g.Neighbors(v) {
			if colors[u] == colors[v] {
				t.Fatalf("adjacent vertices %d,%d share color %d", v, u, colors[v])
			}
		}
	}
}

func TestGreedyColoringBipartitePath(t *testing.T) {
	g := path(t, 10)
	_, num := g.GreedyColoring()
	if num != 2 {
		t.Fatalf("path coloring used %d colors, want 2", num)
	}
}

func TestGreedyColoringCompleteGraph(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = g.AddEdge(i, j)
		}
	}
	_, num := g.GreedyColoring()
	if num != 5 {
		t.Fatalf("K5 coloring used %d colors, want 5", num)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(t, 6)
	sub, ids := g.InducedSubgraph([]int{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatalf("subgraph has %d vertices", sub.N())
	}
	if !reflect.DeepEqual(ids, []int{0, 1, 3, 4}) {
		t.Fatalf("id mapping = %v", ids)
	}
	// Edges preserved: (0,1) and (3,4) exist in C6; (1,3), (0,4) do not.
	if !sub.HasEdge(0, 1) {
		t.Fatal("edge (0,1) missing in subgraph")
	}
	if !sub.HasEdge(2, 3) {
		t.Fatal("edge (3,4)→(2,3) missing in subgraph")
	}
	if sub.HasEdge(1, 2) {
		t.Fatal("phantom edge (1,3)→(1,2) in subgraph")
	}
}

func TestInducedSubgraphDedup(t *testing.T) {
	g := path(t, 4)
	sub, ids := g.InducedSubgraph([]int{2, 2, 1, 1})
	if sub.N() != 2 || !reflect.DeepEqual(ids, []int{1, 2}) {
		t.Fatalf("dedup failed: n=%d ids=%v", sub.N(), ids)
	}
	if !sub.HasEdge(0, 1) {
		t.Fatal("edge (1,2) missing after dedup")
	}
}

func TestInducedSubgraphEdgePreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 0.2, rng.New(seed))
		pick := rng.New(seed + 1)
		var verts []int
		for v := 0; v < 25; v++ {
			if pick.Bernoulli(0.5) {
				verts = append(verts, v)
			}
		}
		sub, ids := g.InducedSubgraph(verts)
		for i := 0; i < sub.N(); i++ {
			for j := i + 1; j < sub.N(); j++ {
				if sub.HasEdge(i, j) != g.HasEdge(ids[i], ids[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHopDistSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(15, 0.25, rng.New(seed))
		for u := 0; u < 15; u++ {
			for v := u + 1; v < 15; v++ {
				if g.HopDist(u, v) != g.HopDist(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
