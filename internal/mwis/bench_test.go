package mwis

import (
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// extendedBalls returns the extended graph of a random network, N=100
// nodes of average degree 6 (seed 3) and m channels, with its adjacency
// rows and its r=2 balls of more than minN vertices, each ascending.
func extendedBalls(tb testing.TB, m, minN int) (*graph.Graph, [][]uint64, [][]int) {
	nw, err := topology.Random(topology.RandomConfig{N: 100, TargetDegree: 6}, rng.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		tb.Fatal(err)
	}
	var balls [][]int
	for v := 0; v < ext.K(); v++ {
		if ball := ext.H.Ball(v, 2); len(ball) > minN {
			balls = append(balls, ball)
		}
	}
	return ext.H, adjacencyRows(ext.H), balls
}

// preparedBalls prepares extendedBalls' balls as the decider prepares a
// memo miss, with PrepareInduced over the extended graph's adjacency rows.
// It also prepares each with Prepare of its InducedSubgraph, and fails
// unless the two agree.
func preparedBalls(tb testing.TB, m, minN int) []Prepared {
	h, rows, vs := extendedBalls(tb, m, minN)
	balls := make([]Prepared, len(vs))
	var ws Workspace
	for k := range vs {
		balls[k].PrepareInduced(rows, vs[k], &ws)
		sub, _ := h.InducedSubgraph(vs[k])
		var want Prepared
		want.Prepare(sub, &ws)
		if diff := preparedDiff(&balls[k], &want); diff != "" {
			tb.Fatalf("m=%d ball %d: %s", m, k, diff)
		}
	}
	return balls
}

// solveCase is one named set of prepared balls, each with its weights.
type solveCase struct {
	name    string
	balls   []Prepared
	weights [][]float64
}

// solveBudget is the node budget of BenchmarkSolvePrepared and
// TestSolvePreparedWorkGolden: the decider's default.
const solveBudget = 50000

// solveCases builds BenchmarkSolvePrepared's four cases:
//
//   - "uniform" and "unseen" solve every ball of a Fig. 6-size network
//     (M=5, a 500-vertex extended graph), only 5 of which exceed 64
//     vertices, so they time the one-word search body. "uniform" draws
//     seeded uniform weights; "unseen" gives every vertex the index of an
//     unplayed arm (2.0), the warm-up tie regime that runs searches into
//     the node budget.
//   - "wide" solves, under seeded uniform weights, the 610 balls of more
//     than 64 vertices of the same network at M=10 (Fig. 8's size). 600 of
//     them have at most 128 vertices, so it times the two-word body.
//   - "widest" solves wide's 10 balls of more than 128 vertices (137
//     each, wide's balls 310–319) under their wide weights, so it times
//     the slice body.
func solveCases(tb testing.TB) []solveCase {
	fig6 := preparedBalls(tb, 5, 0)
	wide := preparedBalls(tb, 10, 64)
	src := rng.New(2)
	draw := func(balls []Prepared, weight func() float64) [][]float64 {
		w := make([][]float64, len(balls))
		for k := range balls {
			w[k] = make([]float64, balls[k].N())
			for i := range w[k] {
				w[k][i] = weight()
			}
		}
		return w
	}
	cases := []solveCase{
		{"uniform", fig6, draw(fig6, src.Float64)},
		{"unseen", fig6, draw(fig6, func() float64 { return 2.0 })},
		{"wide", wide, draw(wide, src.Float64)},
		{name: "widest"},
	}
	widest := &cases[3]
	for k, p := range wide {
		if p.N() > 128 {
			widest.balls = append(widest.balls, p)
			widest.weights = append(widest.weights, cases[2].weights[k])
		}
	}
	return cases
}

// BenchmarkSolvePrepared times Hybrid.SolvePrepared, the decider's local
// solve, over r=2 candidate balls (solveCases). Each op solves the next
// ball in turn with the slack certificate requested, as the decider does.
// nodes/op is the branch-and-bound nodes spent per solve, exact/op the
// nodes among them that summed their clique heads exactly because the
// carried bound could not decide alone (search.bound), and ns/node the
// time per node, set-up included.
func BenchmarkSolvePrepared(b *testing.B) {
	h := Hybrid{Budget: solveBudget}
	for _, bc := range solveCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			ws := Workspace{TrackSlack: true}
			nodes, sums := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(bc.balls)
				if _, err := h.SolvePrepared(&bc.balls[k], bc.weights[k], &ws); err != nil {
					b.Fatal(err)
				}
				nodes += solveBudget - ws.st.budget
				sums += ws.st.sums
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(sums)/float64(b.N), "exact/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		})
	}
}

// BenchmarkPrepareInduced times Prepared.PrepareInduced, the decider's
// preparation of a memo miss, over the extended graph's adjacency rows.
// Each op prepares the next ball in turn into one reused Prepared: "fig6"
// takes every r=2 ball of the Fig. 6-size network (M=5), "wide" the balls
// of more than 64 vertices at M=10 (Fig. 8's size), as in solveCases.
func BenchmarkPrepareInduced(b *testing.B) {
	for _, bc := range []struct {
		name    string
		m, minN int
	}{{"fig6", 5, 0}, {"wide", 10, 64}} {
		_, rows, balls := extendedBalls(b, bc.m, bc.minN)
		b.Run(bc.name, func(b *testing.B) {
			var ws Workspace
			var p Prepared
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PrepareInduced(rows, balls[i%len(balls)], &ws)
			}
		})
	}
}
