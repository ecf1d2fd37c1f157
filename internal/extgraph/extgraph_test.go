package extgraph

import (
	"reflect"
	"testing"
	"testing/quick"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// triangle returns the 3-node conflict graph of the paper's Fig. 1.
func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBuildFig1(t *testing.T) {
	// The paper's Fig. 1: 3 mutually conflicting nodes, 3 channels.
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ext.H.N() != 9 {
		t.Fatalf("H has %d vertices, want 9", ext.H.N())
	}
	// Each node's channel copies form a clique.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := j + 1; k < 3; k++ {
				if !ext.H.HasEdge(ext.ID(i, j), ext.ID(i, k)) {
					t.Fatalf("missing clique edge at node %d channels %d,%d", i, j, k)
				}
			}
		}
	}
	// Same channel across conflicting nodes is an edge.
	for j := 0; j < 3; j++ {
		if !ext.H.HasEdge(ext.ID(0, j), ext.ID(1, j)) {
			t.Fatalf("missing same-channel edge on channel %d", j)
		}
	}
	// Different channels across different nodes are NOT edges.
	if ext.H.HasEdge(ext.ID(0, 0), ext.ID(1, 1)) {
		t.Fatal("cross-channel edge must not exist")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 3); err == nil {
		t.Fatal("expected error for nil graph")
	}
	if _, err := Build(graph.New(2), 0); err == nil {
		t.Fatal("expected error for zero channels")
	}
}

func TestIDRoundTrip(t *testing.T) {
	ext, err := Build(graph.New(7), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			id := ext.ID(i, j)
			v := ext.VertexOf(id)
			if v.Node != i || v.Channel != j {
				t.Fatalf("VertexOf(ID(%d,%d)) = %+v", i, j, v)
			}
			if ext.Node(id) != i || ext.Channel(id) != j {
				t.Fatalf("Node/Channel accessors disagree at (%d,%d)", i, j)
			}
		}
	}
	if ext.K() != 28 {
		t.Fatalf("K = %d, want 28", ext.K())
	}
}

func TestStrategyVertices(t *testing.T) {
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStrategy(3)
	s[0] = 1
	s[2] = 0
	verts := ext.Vertices(s)
	want := []int{ext.ID(0, 1), ext.ID(2, 0)}
	if !reflect.DeepEqual(verts, want) {
		t.Fatalf("Vertices = %v, want %v", verts, want)
	}
}

func TestStrategyFromVertices(t *testing.T) {
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ext.StrategyFromVertices([]int{ext.ID(1, 2), ext.ID(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 0 || s[1] != 2 || s[2] != NoChannel {
		t.Fatalf("strategy = %v", s)
	}
}

func TestStrategyFromVerticesErrors(t *testing.T) {
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ext.StrategyFromVertices([]int{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := ext.StrategyFromVertices([]int{ext.ID(1, 0), ext.ID(1, 2)}); err == nil {
		t.Fatal("expected duplicate-node error")
	}
}

// TestFillStrategy checks the in-place fill: it overwrites whatever the
// caller's strategy held with StrategyFromVertices' answer, and rejects a
// strategy of the wrong length as well as the ids StrategyFromVertices
// rejects.
func TestFillStrategy(t *testing.T) {
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{ext.ID(1, 2), ext.ID(0, 0)}
	want, err := ext.StrategyFromVertices(ids)
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{2, 1, 0}
	if err := ext.FillStrategy(s, ids); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("filled %v, want %v", s, want)
	}
	if err := ext.FillStrategy(s, nil); err != nil || !reflect.DeepEqual(s, NewStrategy(3)) {
		t.Fatalf("no ids: %v (%v), want all silent", s, err)
	}
	if err := ext.FillStrategy(make(Strategy, 2), ids); err == nil {
		t.Fatal("expected wrong-length error")
	}
	if err := ext.FillStrategy(s, []int{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := ext.FillStrategy(s, []int{ext.ID(1, 0), ext.ID(1, 2)}); err == nil {
		t.Fatal("expected duplicate-node error")
	}
}

func TestFeasible(t *testing.T) {
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		s    Strategy
		want bool
	}{
		{"all silent", Strategy{NoChannel, NoChannel, NoChannel}, true},
		{"distinct channels", Strategy{0, 1, 2}, true},
		{"conflicting channels", Strategy{0, 0, 1}, false},
		{"channel out of range", Strategy{3, NoChannel, NoChannel}, false},
		{"wrong length", Strategy{0, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ext.Feasible(tt.s); got != tt.want {
				t.Errorf("Feasible(%v) = %v, want %v", tt.s, got, tt.want)
			}
		})
	}
}

func TestFeasibleEquivalentToIndependence(t *testing.T) {
	// Feasible(s) must coincide with independence of the selected
	// vertices in H (the paper's Section III equivalence).
	f := func(seed int64) bool {
		src := rng.New(seed)
		nw, err := topology.Random(topology.RandomConfig{N: 12}, src)
		if err != nil {
			return false
		}
		const m = 3
		ext, err := Build(nw.G, m)
		if err != nil {
			return false
		}
		s := NewStrategy(12)
		for i := range s {
			c := src.Intn(m + 1)
			if c < m {
				s[i] = c
			}
		}
		return ext.Feasible(s) == ext.H.IsIndependent(ext.Vertices(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIndependenceNumberVsChromatic(t *testing.T) {
	// The paper notes the independence number of H is N iff χ(G) ≤ M.
	// A triangle with 2 channels cannot serve all 3 nodes.
	ext, err := Build(triangle(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	strategies, err := allFeasible(ext)
	if err != nil {
		t.Fatal(err)
	}
	maxActive := 0
	for _, s := range strategies {
		active := 0
		for _, c := range s {
			if c != NoChannel {
				active++
			}
		}
		if active > maxActive {
			maxActive = active
		}
	}
	if maxActive != 2 {
		t.Fatalf("triangle with 2 channels supports %d active nodes, want 2", maxActive)
	}
	// With 3 channels all nodes can be served.
	ext3, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{0, 1, 2}
	if !ext3.Feasible(s) {
		t.Fatal("triangle with 3 channels must support all nodes")
	}
}

// allFeasible enumerates every strategy (including silence) of a small ext.
func allFeasible(ext *Extended) ([]Strategy, error) {
	var out []Strategy
	s := NewStrategy(ext.N)
	var rec func(i int) error
	rec = func(i int) error {
		if i == ext.N {
			if ext.Feasible(s) {
				out = append(out, append(Strategy(nil), s...))
			}
			return nil
		}
		for c := -1; c < ext.M; c++ {
			s[i] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		s[i] = NoChannel
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

func TestBallChannelCopiesAreOneHop(t *testing.T) {
	// Two virtual vertices of the same master node are 1-hop neighbors in
	// H even though they are geometrically co-located (paper §IV-B).
	ext, err := Build(triangle(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	ball := ext.Ball(ext.ID(0, 0), 1)
	want := map[int]bool{
		ext.ID(0, 0): true, ext.ID(0, 1): true, ext.ID(0, 2): true,
		ext.ID(1, 0): true, ext.ID(2, 0): true,
	}
	if len(ball) != len(want) {
		t.Fatalf("1-ball of v(0,0) = %v", ball)
	}
	for _, u := range ball {
		if !want[u] {
			t.Fatalf("unexpected ball member %d", u)
		}
	}
}

func TestGrowthBound(t *testing.T) {
	ext, err := Build(graph.New(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := ext.GrowthBound(2); got != 5*25 {
		t.Fatalf("GrowthBound(2) = %d, want 125", got)
	}
}

func TestGrowthBoundHoldsOnRandomNetworks(t *testing.T) {
	// Theorem 2: any independent set inside an r-ball of H has at most
	// M·(2r+1)² vertices. Verify empirically with a greedy IS.
	f := func(seed int64) bool {
		src := rng.New(seed)
		nw, err := topology.Random(topology.RandomConfig{N: 40}, src)
		if err != nil {
			return false
		}
		const m = 4
		ext, err := Build(nw.G, m)
		if err != nil {
			return false
		}
		v := src.Intn(ext.K())
		const r = 2
		ball := ext.Ball(v, r)
		// Greedy maximal IS inside the ball.
		sub, _ := ext.H.InducedSubgraph(ball)
		var is []int
		taken := make([]bool, sub.N())
		for u := 0; u < sub.N(); u++ {
			if taken[u] {
				continue
			}
			is = append(is, u)
			taken[u] = true
			for _, w := range sub.Neighbors(u) {
				taken[w] = true
			}
		}
		return len(is) <= ext.GrowthBound(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHVertexCountScales(t *testing.T) {
	nw, err := topology.Random(topology.RandomConfig{N: 25}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 5} {
		ext, err := Build(nw.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if ext.H.N() != 25*m {
			t.Fatalf("H vertices = %d for M=%d", ext.H.N(), m)
		}
	}
}

func TestNewStrategyAllSilent(t *testing.T) {
	s := NewStrategy(4)
	for i, c := range s {
		if c != NoChannel {
			t.Fatalf("NewStrategy[%d] = %d", i, c)
		}
	}
}
