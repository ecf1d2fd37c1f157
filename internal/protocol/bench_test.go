package protocol

import (
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

func buildExtB(b *testing.B, n, m int, seed int64) *extgraph.Extended {
	b.Helper()
	nw, err := topology.Random(topology.RandomConfig{N: n, RequireConnected: true}, rng.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		b.Fatal(err)
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
	res, err := referenceDecide(rt, weights, nil)
	if err != nil {
		b.Fatal(err)
	}
	prev := res.Winners
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceDecide(rt, weights, prev); err != nil {
			b.Fatal(err)
		}
	}
}
