package serve

import (
	"testing"

	"multihopbandit/internal/core"
	"multihopbandit/internal/sim"
	"multihopbandit/internal/spec"
)

// serialScheme builds the serial core.Scheme equivalent of a served
// instance through the one spec.Build path: same artifacts, same noise
// stream derivation, same policy construction.
func serialScheme(t *testing.T, s spec.ScenarioSpec) *core.Scheme {
	t.Helper()
	b, err := spec.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.New(core.Config{
		Net:         b.Artifacts.Net,
		Channels:    b.Sampler,
		M:           b.Spec.Channel.M,
		R:           b.Spec.Decision.R,
		D:           b.Spec.Decision.D,
		Policy:      b.Policy,
		UpdateEvery: b.Spec.Decision.UpdateEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServedMatchesSerialScheme is the golden test of the serving runtime:
// for a fixed spec, a served instance's per-slot assignment sequence and
// observed throughput are bit-identical to the equivalent serial
// core.Scheme run — across policies, update periods, topology kinds, and
// every channel kind the spec expresses (gaussian, Gilbert–Elliott,
// shifting, primary-user-wrapped).
func TestServedMatchesSerialScheme(t *testing.T) {
	const slots = 300
	cases := []struct {
		name string
		spec spec.ScenarioSpec
	}{
		{
			name: "zhou-li",
			spec: spec.ScenarioSpec{
				Seed:     1,
				Topology: spec.TopologySpec{N: 10, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
			},
		},
		{
			name: "zhou-li-y4",
			spec: spec.ScenarioSpec{
				Seed:     1,
				Topology: spec.TopologySpec{N: 10, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Decision: spec.DecisionSpec{UpdateEvery: 4},
			},
		},
		{
			name: "llr",
			spec: spec.ScenarioSpec{
				Seed:     7,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 3},
				Policy:   spec.PolicySpec{Kind: spec.PolicyLLR},
			},
		},
		{
			name: "cucb-y8",
			spec: spec.ScenarioSpec{
				Seed:     3,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyCUCB},
				Decision: spec.DecisionSpec{UpdateEvery: 8},
			},
		},
		{
			name: "discounted",
			spec: spec.ScenarioSpec{
				Seed:     5,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyDiscountedZhouLi, Gamma: 0.97},
			},
		},
		{
			name: "gilbert-elliott",
			spec: spec.ScenarioSpec{
				Seed:      11,
				NoiseSeed: 111,
				Topology:  spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:   spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2},
			},
		},
		{
			name: "shifting-discounted",
			spec: spec.ScenarioSpec{
				Seed:     12,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:  spec.ChannelSpec{Kind: spec.ChannelShifting, M: 2, Period: 50},
				Policy:   spec.PolicySpec{Kind: spec.PolicyDiscountedZhouLi},
				Decision: spec.DecisionSpec{UpdateEvery: 2},
			},
		},
		{
			name: "primary-user",
			spec: spec.ScenarioSpec{
				Seed:     13,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel: spec.ChannelSpec{
					M:       2,
					Primary: spec.PrimarySpec{Enabled: true},
				},
			},
		},
		{
			name: "eps-greedy-grid",
			spec: spec.ScenarioSpec{
				Seed:     14,
				Topology: spec.TopologySpec{Kind: spec.TopologyGrid, Rows: 3, Cols: 3},
				Channel:  spec.ChannelSpec{M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyEpsGreedy},
			},
		},
		{
			name: "ge-linear",
			spec: spec.ScenarioSpec{
				Seed:     15,
				Topology: spec.TopologySpec{Kind: spec.TopologyLinear, N: 9},
				Channel:  spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2},
				Decision: spec.DecisionSpec{UpdateEvery: 4},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(RegistryConfig{Shards: 2})
			defer reg.Close()
			h, err := reg.Create(InstanceConfig{Spec: tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			scheme := serialScheme(t, tc.spec)
			for s := 0; s < slots; s++ {
				got, err := h.Step(1)
				if err != nil {
					t.Fatalf("slot %d: served step: %v", s, err)
				}
				want, err := scheme.Step()
				if err != nil {
					t.Fatalf("slot %d: serial step: %v", s, err)
				}
				if got.Observed != want.Observed {
					t.Fatalf("slot %d: observed %v (served) vs %v (serial)", s, got.Observed, want.Observed)
				}
				if !equalInts(got.Assignment.Winners, want.Winners) {
					t.Fatalf("slot %d: winners %v (served) vs %v (serial)", s, got.Assignment.Winners, want.Winners)
				}
				if !equalInts(got.Assignment.Strategy, want.Strategy) {
					t.Fatalf("slot %d: strategy %v (served) vs %v (serial)", s, got.Assignment.Strategy, want.Strategy)
				}
				if want.Decided && got.Assignment.EstimatedWeight != want.EstimatedWeight {
					t.Fatalf("slot %d: estimated weight %v (served) vs %v (serial)",
						s, got.Assignment.EstimatedWeight, want.EstimatedWeight)
				}
			}
		})
	}
}

// TestScenarioRunMatchesServed checks the simulator's spec runner and the
// serving runtime are two drivers of one construction API: for equal specs,
// sim.RunScenario's observed series is bit-identical to a hosted instance
// stepping through the same slots.
func TestScenarioRunMatchesServed(t *testing.T) {
	const slots = 200
	s := spec.ScenarioSpec{
		Seed:     21,
		Topology: spec.TopologySpec{N: 9, RequireConnected: true},
		Channel:  spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: 2},
	}
	res, err := sim.RunScenario(sim.ScenarioConfig{Spec: s, Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(InstanceConfig{Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		step, err := h.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if step.ObservedKbps != res.SeriesKbps[i] {
			t.Fatalf("slot %d: served %v kbps vs scenario run %v kbps", i, step.ObservedKbps, res.SeriesKbps[i])
		}
	}
	if res.Decisions != slots/2 {
		t.Fatalf("scenario run decisions = %d, want %d", res.Decisions, slots/2)
	}
}

// TestExternalObserveMatchesSerialScheme drives an instance in the
// external-environment mode: the client reads assignments, samples its own
// channel model (built from the same spec), and pushes the rewards back.
// The resulting assignment sequence must match the serial run too.
func TestExternalObserveMatchesSerialScheme(t *testing.T) {
	const slots = 200
	sp := spec.ScenarioSpec{
		Seed:     2,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: 2},
	}
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	h, err := reg.Create(InstanceConfig{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	scheme := serialScheme(t, sp)

	// The client's own environment, built from the same spec: the sampler
	// draws the exact reward sequence the hosted model would.
	b, err := spec.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	env := b.Sampler

	for s := 0; s < slots; s++ {
		as, err := h.Assignment()
		if err != nil {
			t.Fatal(err)
		}
		want, err := scheme.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(as.Winners, want.Winners) {
			t.Fatalf("slot %d: winners %v (served) vs %v (serial)", s, as.Winners, want.Winners)
		}
		rewards := make([]float64, len(as.Winners))
		for i, v := range as.Winners {
			rewards[i] = env.Sample(v)
		}
		res, err := h.Observe([]ObservationBatch{{Played: as.Winners, Rewards: rewards}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Slot != s+1 {
			t.Fatalf("slot %d: observe advanced to %d", s, res.Slot)
		}
	}
	info, err := h.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != slots || info.Observations != slots {
		t.Fatalf("info = %+v, want slot=%d observations=%d", info, slots, slots)
	}
}

// TestSnapshotRestoreMidRunBitIdentical is the kernel-level restore
// equivalence check: drive an uninterrupted instance externally for the
// whole horizon, and in parallel drive a second instance identically up to
// a cut point, snapshot it there, restore into a third (fresh) instance
// and continue only the restored one. Every post-cut assignment (winners,
// strategy, decided slot, estimated weight) must be bit-identical to the
// uninterrupted run. The cut is exercised both at a decision boundary and
// mid-update-period — the latter is what catches a restore that re-decides
// instead of resuming the period's strategy.
func TestSnapshotRestoreMidRunBitIdentical(t *testing.T) {
	const (
		slots = 120
		y     = 4
	)
	sp := spec.ScenarioSpec{
		Seed:     8,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: y},
	}
	// Deterministic external rewards shared by every drive of the same slot.
	rewardAt := func(slot, i int) float64 { return float64((slot*7+i*3)%11) / 11 }

	drive := func(t *testing.T, h *Instance, from, to int) []*Assignment {
		t.Helper()
		out := make([]*Assignment, 0, to-from)
		for s := from; s < to; s++ {
			as, err := h.Assignment()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, as)
			rewards := make([]float64, len(as.Winners))
			for i := range rewards {
				rewards[i] = rewardAt(s, i)
			}
			if _, err := h.Observe([]ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	policies := []struct {
		name   string
		policy string
	}{
		// The default learning policy's weights move every round, so every
		// boundary runs a full decide; the oracle's never move, so
		// boundaries settle into weight-epoch skips and the mid-period cut
		// snapshots mid-epoch — a restore (whose fresh decider re-decides
		// the next boundary from scratch) must not disturb the trajectory.
		{"zhou-li", ""},
		{"oracle-mid-epoch", spec.PolicyOracle},
		// The randomized policy's snapshot also carries its random
		// stream's position.
		{"eps-greedy", spec.PolicyEpsGreedy},
	}
	for _, pv := range policies {
		for _, tc := range []struct {
			name string
			cut  int
		}{
			{"decision-boundary", 60}, // 60 % y == 0
			{"mid-period", 62},        // 62 % y != 0: strategy decided at 60 must survive
		} {
			t.Run(pv.name+"/"+tc.name, func(t *testing.T) {
				sp := sp
				sp.Policy.Kind = pv.policy
				reg := NewRegistry(RegistryConfig{})
				defer reg.Close()

				full, err := reg.Create(InstanceConfig{Spec: sp})
				if err != nil {
					t.Fatal(err)
				}
				want := drive(t, full, 0, slots)
				if pv.policy == spec.PolicyOracle {
					if skips := reg.Metrics().TotalEpochSkips(); skips == 0 {
						t.Fatal("oracle run recorded no weight-epoch skips; the mid-epoch cut would not test one")
					}
					// The second boundary re-solves the first's instances
					// under identical weights: exact leader skips.
					if skips := reg.Metrics().TotalLeaderSkips(); skips == 0 {
						t.Fatal("oracle run recorded no exact leader skips")
					}
				}

				interrupted, err := reg.Create(InstanceConfig{ID: "interrupted", Spec: sp})
				if err != nil {
					t.Fatal(err)
				}
				drive(t, interrupted, 0, tc.cut)
				snap, err := interrupted.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if snap.Slot != tc.cut {
					t.Fatalf("snapshot at slot %d, want %d", snap.Slot, tc.cut)
				}

				restored, err := reg.Create(InstanceConfig{ID: "restored", Spec: sp})
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.Restore(snap); err != nil {
					t.Fatal(err)
				}
				got := drive(t, restored, tc.cut, slots)

				for i, as := range got {
					ref := want[tc.cut+i]
					if as.Slot != ref.Slot || as.DecidedSlot != ref.DecidedSlot {
						t.Fatalf("slot %d: position %d/%d (restored) vs %d/%d (uninterrupted)",
							tc.cut+i, as.Slot, as.DecidedSlot, ref.Slot, ref.DecidedSlot)
					}
					if !equalInts(as.Winners, ref.Winners) {
						t.Fatalf("slot %d: winners %v (restored) vs %v (uninterrupted)", tc.cut+i, as.Winners, ref.Winners)
					}
					if !equalInts(as.Strategy, ref.Strategy) {
						t.Fatalf("slot %d: strategy diverged", tc.cut+i)
					}
					if as.EstimatedWeight != ref.EstimatedWeight {
						t.Fatalf("slot %d: estimated weight %v (restored) vs %v (uninterrupted)",
							tc.cut+i, as.EstimatedWeight, ref.EstimatedWeight)
					}
				}
			})
		}
	}
}

// TestSnapshotRestoreResumesTrajectory snapshots a served instance mid-run,
// restores it into a fresh instance, and checks the restored instance's
// external-mode decisions continue the original trajectory.
func TestSnapshotRestoreResumesTrajectory(t *testing.T) {
	sp := spec.ScenarioSpec{
		Seed:     4,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: 2},
	}
	reg := NewRegistry(RegistryConfig{})
	defer reg.Close()
	orig, err := reg.Create(InstanceConfig{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Step(101); err != nil {
		t.Fatal(err)
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	clone, err := reg.Create(InstanceConfig{ID: "clone", Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// Both instances now see identical observation streams; their decisions
	// must stay identical (the hosted samplers have diverged, so drive both
	// externally).
	for s := 0; s < 60; s++ {
		a, err := orig.Assignment()
		if err != nil {
			t.Fatal(err)
		}
		b, err := clone.Assignment()
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(a.Winners, b.Winners) || a.Slot != b.Slot {
			t.Fatalf("round %d: diverged: %+v vs %+v", s, a, b)
		}
		rewards := make([]float64, len(a.Winners))
		for i := range rewards {
			rewards[i] = float64((s+i)%10) / 10
		}
		batch := []ObservationBatch{{Played: a.Winners, Rewards: rewards}}
		if _, err := orig.Observe(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := clone.Observe(batch); err != nil {
			t.Fatal(err)
		}
	}
}
