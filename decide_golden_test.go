package multihopbandit

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"multihopbandit/internal/core"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/spec"
)

// decideWork is what TestDecideWorkGolden pins for one workload shape: the
// decider's cumulative counters, the per-vertex broadcast relays summed
// over every decision, and an FNV-64a digest of every decision's Winners.
type decideWork struct {
	stats    protocol.DecideStats
	messages int64
	digest   uint64
}

// tenByTwo is the 10×2 zhou-li instance shape of stackbench's fleet-drift
// (y=1) and observe-wire-durable (y=4) workloads.
func tenByTwo(seed, noise int64, y int) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Seed: seed, NoiseSeed: noise,
		Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 10},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 2},
		Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
		Decision: spec.DecisionSpec{R: 2, D: 4, UpdateEvery: y},
	}
}

// decideWorkGolden holds one instance of each BENCHMARK.json workload's
// shape, the number of sampled slots the gate drives it for, and the work
// one run does, plus a cold start of paper-scale's shape: the first slots
// of a new instance, whose local searches are the hardest it runs. The
// seeds are fixed and unrelated to stackbench's, which draws its own.
var decideWorkGolden = []struct {
	name  string
	spec  spec.ScenarioSpec
	slots int
	want  decideWork
}{
	{"fleet-drift", tenByTwo(11, 12, 1), 2048, decideWork{
		stats: protocol.DecideStats{
			FullDecides: 2048, SensitivitySkips: 1293, MemoStructHits: 745, MemoMisses: 16,
			MiniRounds: 2054, WeightBroadcasts: 8186, LeaderDeclarations: 2054, LocalBroadcasts: 2054,
			MiniTimeslots: 77902,
		},
		messages: 245880,
		digest:   0xc868ad363e9ad369,
	}},
	{"paper-scale", spec.ScenarioSpec{
		Seed: 21, NoiseSeed: 22,
		Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 100, TargetDegree: 6},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 5},
		Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
		Decision: spec.DecisionSpec{UpdateEvery: 1},
	}, 128, decideWork{
		stats: protocol.DecideStats{
			FullDecides: 128, SensitivitySkips: 710, MemoStructHits: 688, MemoMisses: 310,
			MiniRounds: 512, WeightBroadcasts: 10221, LeaderDeclarations: 1708, LocalBroadcasts: 1708,
			MiniTimeslots: 9856,
		},
		messages: 1947739,
		digest:   0xa65ea704f809d206,
	}},
	// paper-scale's shape on another network, over its first 8 slots only:
	// every arm is unseen, all indices tie at the unseen-arm index, and
	// the local searches are at their hardest. Three of them stopped at
	// the node budget until the search bounded by a clique cover of each
	// node's remaining set past its first 8,192 nodes; the winners are
	// the same.
	{"paper-scale-cold", spec.ScenarioSpec{
		Seed: 23, NoiseSeed: 24,
		Topology: spec.TopologySpec{Kind: spec.TopologyRandom, N: 100, TargetDegree: 6},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelGaussian, M: 5},
		Policy:   spec.PolicySpec{Kind: spec.PolicyZhouLi},
		Decision: spec.DecisionSpec{UpdateEvery: 1},
	}, 8, decideWork{
		stats: protocol.DecideStats{
			FullDecides: 8, SensitivitySkips: 5, MemoStructHits: 4, MemoMisses: 120,
			MiniRounds: 32, WeightBroadcasts: 617, LeaderDeclarations: 129, LocalBroadcasts: 129,
			MiniTimeslots: 616,
		},
		messages: 128049,
		digest:   0x1957a801f722d102,
	}},
	{"observe-wire-durable", tenByTwo(31, 32, 4), 2048, decideWork{
		stats: protocol.DecideStats{
			FullDecides: 512, SensitivitySkips: 1476, MemoStructHits: 39, MemoMisses: 17,
			MiniRounds: 1020, WeightBroadcasts: 3118, LeaderDeclarations: 1532, LocalBroadcasts: 1532,
			MiniTimeslots: 26060,
		},
		messages: 86716,
		digest:   0x04005a9954123a9b,
	}},
}

// TestDecideWorkGolden pins the decide work of each benchmark workload's
// shape: a core.Loop built from spec.Build, protocol.New and core.NewLoop,
// driven for a fixed number of sampled slots. Timing is too noisy to gate
// on, but these counts repeat exactly, so every pin is exact: a counter
// that moves either way fails, and so does a changed winner set. A change
// that moves them on purpose updates decideWorkGolden with a CHANGES.md
// line. Allocations are left out: the no-alloc guards in internal/core and
// internal/mwis cover them, and their counts are not known to agree
// across Go toolchains.
func TestDecideWorkGolden(t *testing.T) {
	for _, c := range decideWorkGolden {
		got, err := runDecideWork(c.spec, c.slots)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.stats != c.want.stats {
			t.Errorf("%s: DecideStats\n got %+v\nwant %+v", c.name, got.stats, c.want.stats)
		}
		if got.messages != c.want.messages {
			t.Errorf("%s: messages %d, want %d", c.name, got.messages, c.want.messages)
		}
		if got.digest != c.want.digest {
			t.Errorf("%s: winners digest %#x, want %#x", c.name, got.digest, c.want.digest)
		}
	}
}

// runDecideWork drives one instance's loop for slots sampled slots and
// accounts its decisions.
func runDecideWork(s spec.ScenarioSpec, slots int) (decideWork, error) {
	b, err := spec.Build(s)
	if err != nil {
		return decideWork{}, err
	}
	d := b.Spec.Decision
	rt, err := protocol.New(protocol.Config{Ext: b.Artifacts.Ext, R: d.R, D: d.D})
	if err != nil {
		return decideWork{}, err
	}
	loop, err := core.NewLoop(core.LoopConfig{
		Ext: b.Artifacts.Ext, Runtime: rt, Policy: b.Policy, Sampler: b.Sampler, UpdateEvery: d.UpdateEvery,
	})
	if err != nil {
		return decideWork{}, err
	}
	var w decideWork
	hash := fnv.New64a()
	var buf []byte
	for i := 0; i < slots; i++ {
		decided, err := loop.EnsureDecided()
		if err != nil {
			return decideWork{}, err
		}
		if decided {
			for _, m := range loop.Decision().Stats.MessagesPerVertex() {
				w.messages += int64(m)
			}
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(loop.Winners())))
			for _, v := range loop.Winners() {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			hash.Write(buf)
		}
		if _, err := loop.StepSampled(nil); err != nil {
			return decideWork{}, err
		}
	}
	w.stats = loop.DecideStats()
	w.digest = hash.Sum64()
	return w, nil
}
