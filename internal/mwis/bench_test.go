package mwis

import (
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// preparedBalls prepares the r=2 balls of more than minN vertices of the
// extended graph of a random network: N=100 nodes of average degree 6
// (seed 3) and m channels.
func preparedBalls(tb testing.TB, m, minN int) []Prepared {
	nw, err := topology.Random(topology.RandomConfig{N: 100, TargetDegree: 6}, rng.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		tb.Fatal(err)
	}
	var balls []Prepared
	var prep Workspace
	for v := 0; v < ext.K(); v++ {
		sub, _ := ext.H.InducedSubgraph(ext.H.Ball(v, 2))
		if sub.N() > minN {
			balls = append(balls, Prepared{})
			balls[len(balls)-1].Prepare(sub, &prep)
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

// solveCases builds BenchmarkSolvePrepared's three cases:
//
//   - "uniform" and "unseen" solve every ball of a Fig. 6-size network
//     (M=5, a 500-vertex extended graph), only 5 of which exceed 64
//     vertices, so they time the one-word search body. "uniform" draws
//     seeded uniform weights; "unseen" gives every vertex the index of an
//     unplayed arm (2.0), the warm-up tie regime that runs searches into
//     the node budget.
//   - "wide" solves, under seeded uniform weights, the balls of more than
//     64 vertices of the same network at M=10 (Fig. 8's size), so it times
//     the multi-word body.
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
	return []solveCase{
		{"uniform", fig6, draw(fig6, src.Float64)},
		{"unseen", fig6, draw(fig6, func() float64 { return 2.0 })},
		{"wide", wide, draw(wide, src.Float64)},
	}
}

// BenchmarkSolvePrepared times Hybrid.SolvePrepared, the decider's local
// solve, over r=2 candidate balls (solveCases). Each op solves the next
// ball in turn with the slack certificate requested, as the decider does.
// nodes/op is the branch-and-bound nodes spent per solve, and exact/op the
// nodes among them that summed their clique heads exactly because the
// carried bound could not decide alone (search.bound).
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
		})
	}
}
