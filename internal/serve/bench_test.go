package serve

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"multihopbandit/internal/obs"
	"multihopbandit/internal/spec"
)

// BenchmarkRecover times the cold start of a crashed fleet: 64 persisted
// 10×2 instances at y=4, each driven 256 slots with a snapshot every 64
// and fsync none, then closed by CloseAbrupt. One op is one
// Registry.Recover rebuilding all of them (snapshot restore plus WAL-tail
// replay); the fleet is rebuilt, untimed, before every op. ms/instance is
// the op's time over the fleet's size.
func BenchmarkRecover(b *testing.B) {
	const instances, slots = 64, 256
	persist := func(dir string) PersistOptions {
		return PersistOptions{DataDir: dir, All: true, SnapshotEvery: 64, Fsync: spec.FsyncNone}
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, strconv.Itoa(i))
		crashed := NewRegistry(RegistryConfig{Persist: persist(dir)})
		for j := 0; j < instances; j++ {
			// One shared artifact set: recovery cost, not graph construction.
			s := gaussSpec(10, 2, 1)
			s.NoiseSeed = int64(j + 1)
			s.Decision.UpdateEvery = 4
			h, err := crashed.Create(InstanceConfig{Spec: s})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Step(slots); err != nil {
				b.Fatal(err)
			}
		}
		crashed.CloseAbrupt()
		reg := NewRegistry(RegistryConfig{Persist: persist(dir)})
		b.StartTimer()
		n, err := reg.Recover()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if n != instances {
			b.Fatalf("recovered %d of %d instances", n, instances)
		}
		reg.CloseAbrupt()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N)/instances, "ms/instance")
}

// BenchmarkStepTracing prices decision-path tracing: one 15×3 instance at
// y=1 in a registry without a trace ring (the production default) and in
// one with it, where the registry's own hook classifies each decision,
// feeds the phase histograms and publishes one span. One op is a 1-slot
// Session.Step, so every op decides.
func BenchmarkStepTracing(b *testing.B) {
	for _, bc := range []struct {
		name  string
		trace *obs.TraceRing
	}{{"detached", nil}, {"attached", obs.NewTraceRing(8192)}} {
		b.Run(bc.name, func(b *testing.B) {
			reg := NewRegistry(RegistryConfig{Shards: 1, Trace: bc.trace})
			defer reg.Close()
			h, err := reg.Create(InstanceConfig{Spec: gaussSpec(15, 3, 3)})
			if err != nil {
				b.Fatal(err)
			}
			var s Session
			if _, err := s.Step(h, 8); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Step(h, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
