package main

import (
	"fmt"

	"multihopbandit/internal/spec"
)

// A workload is one fixed-work schedule against the serving stack: a fleet
// of hosted instances and the closed-loop request pattern one caller drives
// through them, round-robin over instances.
type workload struct {
	name string
	// networks distinct topologies, each hosted as replicas instances that
	// differ only in their noise seed.
	networks, replicas int
	// scenario returns the spec of one instance from its seeds.
	scenario func(topoSeed, noiseSeed int64) spec.ScenarioSpec
	// stepSlots > 0 makes every request one Step of that many slots;
	// otherwise every round per instance is one Assignment read followed by
	// one Observe of obsBatches batches.
	stepSlots  int
	obsBatches int
	// warmRounds run untimed after construction (filling lazy caches);
	// rounds are timed. Both are whole passes over every instance.
	warmRounds, rounds int
	// durable workloads persist their instances and are served through a
	// wire.Server on loopback at the top rung.
	durable bool
}

var workloads = []*workload{
	{
		name:     "fleet-drift",
		networks: 16, replicas: 4,
		scenario: func(topo, noise int64) spec.ScenarioSpec {
			return spec.ScenarioSpec{
				Seed: topo, NoiseSeed: noise,
				Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 10},
				Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
				Decision: spec.DecisionSpec{R: 2, D: 4, UpdateEvery: 1},
			}
		},
		stepSlots:  128,
		warmRounds: 1, rounds: 24,
	},
	{
		name:     "paper-scale",
		networks: 4, replicas: 8,
		scenario: func(topo, noise int64) spec.ScenarioSpec {
			return spec.ScenarioSpec{
				Seed: topo, NoiseSeed: noise,
				Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 100, TargetDegree: 6},
				Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 5},
				Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
				Decision: spec.DecisionSpec{UpdateEvery: 1},
			}
		},
		stepSlots:  8,
		warmRounds: 1, rounds: 6,
	},
	{
		name:     "observe-wire-durable",
		networks: 8, replicas: 2,
		scenario: func(topo, noise int64) spec.ScenarioSpec {
			return spec.ScenarioSpec{
				Seed: topo, NoiseSeed: noise,
				Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 10},
				Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
				Decision: spec.DecisionSpec{UpdateEvery: 4},
				Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: snapshotEvery, Fsync: spec.FsyncNone},
			}
		},
		obsBatches: 4,
		warmRounds: 1, rounds: 512,
		durable: true,
	},
}

// snapshotEvery keeps observe-wire-durable's snapshots out of the timed
// phase: a repetition applies 4+2048 slots per instance, and the final
// snapshot is written at teardown. Snapshots fsync their file and
// directory whatever the WAL policy, and on the disk a run may write to
// those fsyncs spread the workload's throughput 41-54% across runs of one
// build at a 256-slot cadence.
const snapshotEvery = 4096

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// slotsPerRound is the number of slots one round advances one instance.
func (w *workload) slotsPerRound() int {
	if w.stepSlots > 0 {
		return w.stepSlots
	}
	return w.obsBatches
}

// opsPerRound is the number of requests one round sends one instance.
func (w *workload) opsPerRound() int {
	if w.stepSlots > 0 {
		return 1
	}
	return 2
}

// inputs are the generated inputs of one run: the canonical spec and ID of
// every instance, the order each round visits them in, and the schedule
// length. They are a pure function of the workload and the seed.
type inputs struct {
	w          *workload
	seed       int64
	specs      []spec.ScenarioSpec
	ids        []string
	order      []int
	warmRounds int
	rounds     int
}

// fixedSeed fixes each workload's instances: their networks (topology
// placement and channel means) and their noise seeds, hence every reward
// and decision trajectory. The run seed only orders the requests. Seeded
// instances moved the numbers across seeds by more than any bound a
// regression gate can use: topology alone moved paper-scale's slot cost
// 1.65x; noise trajectories settle into per-instance cost levels up to 5x
// apart that persist for 1000+ slots, so a seed's slot cost (paper-scale,
// 1.7x) and its p99, set by the costliest trajectory (fleet-drift, 26%
// interquartile spread over ten seeds), followed the draw.
const fixedSeed = 1

// generate derives every instance's spec from the workload's fixed seed,
// and the order each round visits the instances in from the run seed.
// Replicas of one network share the topology seed, so they share the
// artifact cache entry and the decide arena.
func generate(w *workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed, warmRounds: w.warmRounds, rounds: w.rounds}
	for net := 0; net < w.networks; net++ {
		topo := deriveSeed(fixedSeed, w.name, uint64(net), 0)
		for rep := 0; rep < w.replicas; rep++ {
			noise := deriveSeed(fixedSeed, w.name, uint64(net), uint64(rep)+1)
			canon, err := w.scenario(topo, noise).Canonical()
			if err != nil {
				return nil, fmt.Errorf("%s: instance spec: %w", w.name, err)
			}
			in.specs = append(in.specs, canon)
			in.ids = append(in.ids, fmt.Sprintf("%s-n%02d-r%d", w.name, net, rep))
		}
	}
	// A seeded Fisher-Yates shuffle of the round-robin order.
	in.order = make([]int, len(in.specs))
	h := uint64(deriveSeed(seed, w.name+"/order"))
	for i := range in.order {
		in.order[i] = i
	}
	for i := len(in.order) - 1; i > 0; i-- {
		h = splitmix(h)
		j := int(h % uint64(i+1))
		in.order[i], in.order[j] = in.order[j], in.order[i]
	}
	return in, nil
}

// timedSlots and timedOps are the work of one repetition's timed phase.
func (in *inputs) timedSlots() int64 {
	return int64(in.rounds) * int64(len(in.specs)) * int64(in.w.slotsPerRound())
}

func (in *inputs) timedOps() int64 {
	return int64(in.rounds) * int64(len(in.specs)) * int64(in.w.opsPerRound())
}

// deriveSeed maps a base seed and a label path to a positive int64 seed
// with splitmix64.
func deriveSeed(seed int64, name string, parts ...uint64) int64 {
	h := splitmix(uint64(seed))
	for i := 0; i < len(name); i++ {
		h = splitmix(h ^ uint64(name[i]))
	}
	for _, p := range parts {
		h = splitmix(h ^ p)
	}
	return int64(h>>2) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
