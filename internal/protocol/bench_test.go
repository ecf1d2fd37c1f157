package protocol

import (
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

func buildExtB(tb testing.TB, n, m int, seed int64) *extgraph.Extended {
	tb.Helper()
	nw, err := topology.Random(topology.RandomConfig{N: n, RequireConnected: true}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		tb.Fatal(err)
	}
	return ext
}

// BenchmarkDecideServeShape times the from-scratch oracle decision
// (referenceDecide) on the serving shape: a 10×2 network, r=2, D=4. It is
// the baseline BenchmarkDeciderServeShape's speedup is read against.
func BenchmarkDecideServeShape(b *testing.B) {
	ext := buildExtB(b, 10, 2, 1)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, ext.K())
	src := rng.New(2)
	for i := range weights {
		weights[i] = src.Float64()
	}
	ref := newReferenceRuntime(rt)
	res, _, err := referenceDecide(ref, weights, nil)
	if err != nil {
		b.Fatal(err)
	}
	prev := res.Winners
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := referenceDecide(ref, weights, prev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeciderPaperScale times one Decider held across decides at the
// paper's Fig. 6 size, the shape stackbench's paper-scale workload serves: a
// random network of 100 nodes at target degree 6, M=5, r=2, D=4. It cycles
// through a fixed 16-step weight trajectory in which each step moves about
// one weight in six (w ← 0.9w + 0.1u), rebroadcasting the previous
// decide's winners, and reports the broadcast and election phases per
// decide from the decision-path tracer.
func BenchmarkDeciderPaperScale(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 100, TargetDegree: 6}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 5)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	trajectory := make([][]float64, 16)
	for step := range trajectory {
		w = append([]float64(nil), w...)
		for i := range w {
			if src.Intn(6) == 0 {
				w[i] = 0.9*w[i] + 0.1*src.Float64()
			}
		}
		trajectory[step] = w
	}
	dec := rt.NewDecider()
	var broadcastNS, electionNS int64
	dec.SetTracer(func(tr *DecideTrace) {
		broadcastNS += tr.BroadcastNS
		electionNS += tr.ElectionNS
	})
	var prev []int
	decide := func(step int) {
		res, err := dec.Decide(trajectory[step%len(trajectory)], prev)
		if err != nil {
			b.Fatal(err)
		}
		prev = res.Winners
	}
	for step := range trajectory { // warm the memo and the rank order
		decide(step)
	}
	broadcastNS, electionNS = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(i)
	}
	b.ReportMetric(float64(broadcastNS)/float64(b.N), "broadcast-ns/decide")
	b.ReportMetric(float64(electionNS)/float64(b.N), "election-ns/decide")
}
