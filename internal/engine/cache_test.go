package engine

import (
	"sync"
	"testing"

	"multihopbandit/internal/rng"
)

func newNoise(seed int64) *rng.Source { return rng.New(seed) }

func fig7LikeConfig(seed int64) InstanceConfig {
	return InstanceConfig{N: 15, M: 3, RequireConnected: true, Seed: seed, Stream: "fig7"}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewArtifactCache()
	if _, err := c.Instance(fig7LikeConfig(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Instance(fig7LikeConfig(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Instance(fig7LikeConfig(2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 4 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 misses, 4 hits, 2 entries", st)
	}
}

func TestCacheReturnsIdenticalArtifacts(t *testing.T) {
	c := NewArtifactCache()
	a, err := c.Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned distinct instances for equal configs")
	}
	// And a cold build from an equal config produces equal artifacts.
	fresh, err := NewArtifactCache().Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Means) != len(a.Means) {
		t.Fatal("mean count mismatch")
	}
	for i := range fresh.Means {
		if fresh.Means[i] != a.Means[i] {
			t.Fatalf("mean %d differs across builds", i)
		}
	}
	if fresh.Ext.K() != a.Ext.K() || fresh.Net.G.NumEdges() != a.Net.G.NumEdges() {
		t.Fatal("graph artifacts differ across builds")
	}
}

func TestCacheDeduplicatesConcurrentBuilds(t *testing.T) {
	c := NewArtifactCache()
	var wg sync.WaitGroup
	insts := make([]*Instance, 16)
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := c.Instance(fig7LikeConfig(1))
			if err != nil {
				t.Error(err)
				return
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d builds for 16 concurrent lookups", st.Misses)
	}
	for _, inst := range insts {
		if inst != insts[0] {
			t.Fatal("concurrent lookups returned distinct instances")
		}
	}
}

func TestCacheErrorsAreCachedToo(t *testing.T) {
	c := NewArtifactCache()
	bad := InstanceConfig{N: -1, M: 3, Seed: 1, Stream: "bad"}
	if _, err := c.Instance(bad); err == nil {
		t.Fatal("invalid config built")
	}
	if _, err := c.Instance(bad); err == nil {
		t.Fatal("cached invalid config built")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInstanceOptimalMemoized(t *testing.T) {
	c := NewArtifactCache()
	inst, err := c.Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := inst.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := inst.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 <= 0 {
		t.Fatalf("optimal = %v then %v", v1, v2)
	}
}

func TestInstanceChannelsShareMeans(t *testing.T) {
	c := NewArtifactCache()
	inst, err := c.Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	chA, err := inst.Channels(newNoise(1))
	if err != nil {
		t.Fatal(err)
	}
	chB, err := inst.Channels(newNoise(2))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < chA.K(); k++ {
		if chA.Mean(k) != chB.Mean(k) || chA.Mean(k) != inst.Means[k] {
			t.Fatalf("means diverge at arm %d", k)
		}
	}
}

func TestNormalizedMeansStreamSharesEntry(t *testing.T) {
	// "" and "means" are the same cache key after normalization.
	c := NewArtifactCache()
	x := InstanceConfig{N: 5, M: 2, Seed: 1, Stream: "s"}
	y := x
	y.MeansStream = "means"
	a, err := c.Instance(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Instance(y)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("normalized configs built distinct instances")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTopologyOnlyInstance(t *testing.T) {
	c := NewArtifactCache()
	cfg := InstanceConfig{N: 8, M: 2, Seed: 1, Stream: "shift-exp", TopologyOnly: true}
	inst, err := c.Instance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Net == nil || inst.Ext != nil || inst.Means != nil {
		t.Fatalf("topology-only instance = %+v", inst)
	}
	if _, err := inst.Channels(newNoise(1)); err == nil {
		t.Fatal("Channels on topology-only instance succeeded")
	}
	if _, err := inst.Optimal(); err == nil {
		t.Fatal("Optimal on topology-only instance succeeded")
	}
	// The full instance is a distinct cache entry with the same topology.
	full := cfg
	full.TopologyOnly = false
	fi, err := c.Instance(full)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Net.G.NumEdges() != inst.Net.G.NumEdges() {
		t.Fatal("topology differs between topology-only and full instance")
	}
}

func TestInstanceRuntimeMemoized(t *testing.T) {
	c := NewArtifactCache()
	in, err := c.Instance(fig7LikeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := in.Runtime(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent lookups of the same (r, d) all get the one build.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := in.Runtime(2, 4)
			if err != nil {
				t.Error(err)
				return
			}
			if b != a {
				t.Error("same (r, d) returned a distinct runtime")
			}
		}()
	}
	wg.Wait()
	other, err := in.Runtime(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("distinct (r, d) shared a runtime")
	}
	if a.R() != 2 || other.R() != 1 {
		t.Fatalf("runtime ball parameters = %d, %d, want 2, 1", a.R(), other.R())
	}
	// The shared runtime must actually decide.
	weights := make([]float64, in.Ext.K())
	for k := range weights {
		weights[k] = in.Means[k]
	}
	dec, err := a.NewDecider().Decide(weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Winners) == 0 {
		t.Fatal("shared runtime produced an empty decision")
	}
}

func TestTopologyOnlyRuntimeErrors(t *testing.T) {
	c := NewArtifactCache()
	cfg := fig7LikeConfig(1)
	cfg.TopologyOnly = true
	in, err := c.Instance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Runtime(2, 4); err == nil {
		t.Fatal("Runtime on a topology-only instance should fail")
	}
}
