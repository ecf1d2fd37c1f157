package mwis

import (
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// BenchmarkSolvePrepared times Hybrid.SolvePrepared, the decider's local
// solve, over the r=2 candidate balls of a Fig. 6-size network: N=100 nodes
// of average degree 6 and M=5 channels, a 500-vertex extended graph. Each op
// solves the next ball in turn with the slack certificate requested, as the
// decider does; nodes/op is the branch-and-bound nodes spent per solve.
// "uniform" draws seeded uniform weights; "unseen" gives every vertex the
// index of an unplayed arm (2.0), the warm-up tie regime that runs searches
// into the node budget.
func BenchmarkSolvePrepared(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 100, TargetDegree: 6}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 5)
	if err != nil {
		b.Fatal(err)
	}
	balls := make([]Prepared, ext.K())
	var prep Workspace
	for v := range balls {
		sub, _ := ext.H.InducedSubgraph(ext.H.Ball(v, 2))
		balls[v].Prepare(sub, &prep)
	}
	src := rng.New(2)
	uniform := make([][]float64, len(balls))
	unseen := make([][]float64, len(balls))
	for v, p := range balls {
		uniform[v] = make([]float64, p.N())
		unseen[v] = make([]float64, p.N())
		for i := range uniform[v] {
			uniform[v][i] = src.Float64()
			unseen[v][i] = 2.0
		}
	}
	const budget = 50000
	h := Hybrid{Budget: budget}
	for _, bc := range []struct {
		name    string
		weights [][]float64
	}{{"uniform", uniform}, {"unseen", unseen}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := Workspace{TrackSlack: true}
			nodes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(balls)
				if _, err := h.SolvePrepared(&balls[k], bc.weights[k], &ws); err != nil {
					b.Fatal(err)
				}
				nodes += budget - ws.st.budget
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
