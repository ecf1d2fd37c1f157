package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/sim"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wal"
)

// persistRewardAt is the deterministic external reward stream shared by
// every drive of the same slot — the persistence tests' replacement for a
// hosted sampler (sampler state is intentionally not persisted, so the
// bit-identity contract of recovery is stated for externally driven
// instances).
func persistRewardAt(slot, i int) float64 { return float64((slot*7+i*3)%11) / 11 }

// drivePersist drives an instance externally over [from, to) and returns
// the per-slot assignments.
func drivePersist(t *testing.T, h *Instance, from, to int) []*Assignment {
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
			rewards[i] = persistRewardAt(s, i)
		}
		if _, err := h.Observe([]ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// assertSameTrajectory compares a recovered run's assignments against the
// uninterrupted reference from the given offset.
func assertSameTrajectory(t *testing.T, want []*Assignment, got []*Assignment, offset int) {
	t.Helper()
	for i, as := range got {
		ref := want[offset+i]
		if as.Slot != ref.Slot || as.DecidedSlot != ref.DecidedSlot {
			t.Fatalf("slot %d: position %d/%d (recovered) vs %d/%d (uninterrupted)",
				offset+i, as.Slot, as.DecidedSlot, ref.Slot, ref.DecidedSlot)
		}
		if !equalInts(as.Winners, ref.Winners) {
			t.Fatalf("slot %d: winners %v (recovered) vs %v (uninterrupted)", offset+i, as.Winners, ref.Winners)
		}
		if !equalInts(as.Strategy, ref.Strategy) {
			t.Fatalf("slot %d: strategy diverged", offset+i)
		}
		if as.EstimatedWeight != ref.EstimatedWeight {
			t.Fatalf("slot %d: estimated weight %v (recovered) vs %v (uninterrupted)",
				offset+i, as.EstimatedWeight, ref.EstimatedWeight)
		}
	}
}

func sumWAL(m *Metrics) (appends, snapshots, recovered int64) {
	for i := range m.Shards {
		appends += m.Shards[i].WALAppends.Load()
		snapshots += m.Shards[i].WALSnapshots.Load()
		recovered += m.Shards[i].Recovered.Load()
	}
	return
}

// TestCrashRecoveryBitIdentical is the golden test of the durability layer:
// an externally driven persisted instance is killed abruptly mid-update-
// period (no final snapshot, no log close — the in-process equivalent of
// SIGKILL), recovered into a fresh registry from snapshot + WAL tail, and
// must continue the exact trajectory of an uninterrupted run — winners,
// strategy, decision slots, and estimated weights all bit-identical. The
// eps-greedy case recovers its random stream's position from the snapshot.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	const (
		slots = 120
		cut   = 62 // mid-update-period for y=4: the decided strategy must survive
	)
	cases := []struct {
		name string
		spec spec.ScenarioSpec
	}{
		{
			name: "gaussian",
			spec: spec.ScenarioSpec{
				Seed:     8,
				Topology: spec.TopologySpec{N: 10, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Decision: spec.DecisionSpec{UpdateEvery: 4},
				Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: 16},
			},
		},
		{
			name: "gilbert-elliott",
			spec: spec.ScenarioSpec{
				Seed:      11,
				NoiseSeed: 111,
				Topology:  spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:   spec.ChannelSpec{Kind: spec.ChannelGilbertElliott, M: 2},
				Decision:  spec.DecisionSpec{UpdateEvery: 4},
				Persist:   spec.PersistSpec{Enabled: true, SnapshotEvery: 16},
			},
		},
		{
			name: "eps-greedy",
			spec: spec.ScenarioSpec{
				Seed:     14,
				Topology: spec.TopologySpec{N: 8, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Policy:   spec.PolicySpec{Kind: spec.PolicyEpsGreedy},
				Decision: spec.DecisionSpec{UpdateEvery: 4},
				Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: 16},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The uninterrupted reference: same spec (the persist block is
			// inert without a data dir), driven over the whole horizon.
			ref := NewRegistry(RegistryConfig{})
			defer ref.Close()
			full, err := ref.Create(InstanceConfig{Spec: tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			want := drivePersist(t, full, 0, slots)

			// The durable run, killed abruptly at the cut.
			dir := t.TempDir()
			reg1 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
			h1, err := reg1.Create(InstanceConfig{ID: "inst", Spec: tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := h1.Persisted(); !ok {
				t.Fatal("instance with a persist block was not persisted")
			}
			got := drivePersist(t, h1, 0, cut)
			assertSameTrajectory(t, want, got, 0)
			appends, snaps, _ := sumWAL(reg1.Metrics())
			if appends != cut {
				t.Fatalf("WAL appends = %d, want %d", appends, cut)
			}
			if snaps == 0 {
				t.Fatal("no snapshot published before the cut; recovery would not exercise snapshot + tail")
			}
			reg1.CloseAbrupt()
			instDir, _ := h1.Persisted()
			if _, starts, err := wal.ListSegments(instDir); err != nil || len(starts) != 1 || starts[0] == 0 {
				t.Fatalf("segments after the cut start at %v (%v); want one rotated segment", starts, err)
			}

			// Recover into a fresh registry and continue.
			reg2 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
			defer reg2.Close()
			n, err := reg2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("recovered %d instances, want 1", n)
			}
			if _, _, recovered := sumWAL(reg2.Metrics()); recovered != 1 {
				t.Fatalf("Recovered counter = %d, want 1", recovered)
			}
			h2, ok := reg2.Get("inst")
			if !ok {
				t.Fatal("recovered instance not registered under its ID")
			}
			info, err := h2.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Slot != cut {
				t.Fatalf("recovered at slot %d, want %d", info.Slot, cut)
			}
			got = drivePersist(t, h2, cut, slots)
			assertSameTrajectory(t, want, got, cut)
		})
	}
}

// TestRestoreIsDurable checks that a restore replaces the persisted
// trajectory. An instance is snapshotted at slot 40, driven on to slot 90
// with different rewards, restored to the slot-40 snapshot, driven to slot
// 70 and killed abruptly; it must recover at slot 70 on the restored
// trajectory. The cadences place the segments the restore abandons: one
// unrotated segment holding every record (1000), rotated segments past the
// restored slot (16), and, under keep_log, a segment starting exactly at
// the restored slot (20). Under keep_log the recorded history restarts at
// the restore.
func TestRestoreIsDurable(t *testing.T) {
	const (
		snapAt    = 40
		abandonAt = 90
		killAt    = 70
		slots     = 100
	)
	for _, every := range []int{1000, 16, 20} {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("every-%d/keep-log-%v", every, keep), func(t *testing.T) {
				sp := spec.ScenarioSpec{
					Seed:     8,
					Topology: spec.TopologySpec{N: 10, RequireConnected: true},
					Channel:  spec.ChannelSpec{M: 2},
					Decision: spec.DecisionSpec{UpdateEvery: 4},
					Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: every, KeepLog: keep},
				}
				ref := NewRegistry(RegistryConfig{})
				defer ref.Close()
				full, err := ref.Create(InstanceConfig{Spec: sp})
				if err != nil {
					t.Fatal(err)
				}
				want := drivePersist(t, full, 0, slots)

				dir := t.TempDir()
				reg1 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
				h1, err := reg1.Create(InstanceConfig{ID: "inst", Spec: sp})
				if err != nil {
					t.Fatal(err)
				}
				instDir, _ := h1.Persisted()
				drivePersist(t, h1, 0, snapAt)
				snap, err := h1.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				for s := snapAt; s < abandonAt; s++ {
					as, err := h1.Assignment()
					if err != nil {
						t.Fatal(err)
					}
					rewards := make([]float64, len(as.Winners))
					for i := range rewards {
						rewards[i] = 1 - persistRewardAt(s, i)
					}
					if _, err := h1.Observe([]ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
						t.Fatal(err)
					}
				}
				if err := h1.Restore(snap); err != nil {
					t.Fatal(err)
				}
				assertSameTrajectory(t, want, drivePersist(t, h1, snapAt, killAt), snapAt)
				reg1.CloseAbrupt()

				if keep {
					_, recs, err := ReadRecorded(instDir)
					if err != nil {
						t.Fatal(err)
					}
					first := -1
					if len(recs) > 0 {
						first = recs[0].Slot
					}
					if len(recs) != killAt-snapAt || first != snapAt {
						t.Fatalf("recorded %d slots from slot %d, want %d from %d",
							len(recs), first, killAt-snapAt, snapAt)
					}
				}

				reg2 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
				defer reg2.Close()
				if n, err := reg2.Recover(); err != nil || n != 1 {
					t.Fatalf("recover: %v (%d instances)", err, n)
				}
				h2, ok := reg2.Get("inst")
				if !ok {
					t.Fatal("recovered instance not registered")
				}
				info, err := h2.Info()
				if err != nil {
					t.Fatal(err)
				}
				if info.Slot != killAt {
					t.Fatalf("recovered at slot %d, want %d", info.Slot, killAt)
				}
				assertSameTrajectory(t, want, drivePersist(t, h2, killAt, slots), killAt)
			})
		}
	}
}

// TestTornTailRecovery crashes an instance and then corrupts the WAL the
// way a real crash can: the final frame is cut mid-write. Recovery must
// truncate the torn tail, come back one slot short, and continue the
// uninterrupted trajectory from there once the lost observation is re-fed.
func TestTornTailRecovery(t *testing.T) {
	const (
		slots = 100
		cut   = 57
	)
	sp := spec.ScenarioSpec{
		Seed:     8,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: 4},
		Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: 16},
	}
	ref := NewRegistry(RegistryConfig{})
	defer ref.Close()
	full, err := ref.Create(InstanceConfig{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	want := drivePersist(t, full, 0, slots)

	dir := t.TempDir()
	reg1 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
	h1, err := reg1.Create(InstanceConfig{ID: "inst", Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	instDir, _ := h1.Persisted()
	drivePersist(t, h1, 0, cut)
	reg1.CloseAbrupt()

	// Tear the tail: drop 3 bytes off the newest segment, leaving the last
	// frame incomplete.
	names, _, err := wal.ListSegments(instDir)
	if err != nil || len(names) == 0 {
		t.Fatalf("list segments: %v (%d found)", err, len(names))
	}
	tail := filepath.Join(instDir, names[len(names)-1])
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
	defer reg2.Close()
	if n, err := reg2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %v (%d instances)", err, n)
	}
	h2, ok := reg2.Get("inst")
	if !ok {
		t.Fatal("recovered instance not registered")
	}
	info, err := h2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != cut-1 {
		t.Fatalf("recovered at slot %d, want %d (torn final record lost)", info.Slot, cut-1)
	}
	got := drivePersist(t, h2, cut-1, slots)
	assertSameTrajectory(t, want, got, cut-1)
}

// TestSnapshotRotationAndGC checks the segment lifecycle: every periodic
// snapshot rotates to a fresh segment and collects the ones the snapshot
// covers, unless keep_log retains the full history.
func TestSnapshotRotationAndGC(t *testing.T) {
	for _, keep := range []bool{false, true} {
		name := "collect"
		if keep {
			name = "keep-log"
		}
		t.Run(name, func(t *testing.T) {
			const n = 40
			sp := spec.ScenarioSpec{
				Seed:     8,
				Topology: spec.TopologySpec{N: 10, RequireConnected: true},
				Channel:  spec.ChannelSpec{M: 2},
				Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: 8, KeepLog: keep},
			}
			dir := t.TempDir()
			reg := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
			h, err := reg.Create(InstanceConfig{ID: "inst", Spec: sp})
			if err != nil {
				t.Fatal(err)
			}
			instDir, _ := h.Persisted()
			drivePersist(t, h, 0, n)
			reg.Close()

			_, starts, err := wal.ListSegments(instDir)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				// Rotations at every snapshot (slots 8, 16, ...), nothing
				// collected: the contiguous history replay and banditreplay
				// need is all there.
				wantStarts := []int{0, 8, 16, 24, 32, 40}
				if !equalInts(starts, wantStarts) {
					t.Fatalf("segment starts = %v, want %v", starts, wantStarts)
				}
				meta, recs, err := ReadRecorded(instDir)
				if err != nil {
					t.Fatal(err)
				}
				if meta.ID != "inst" || len(recs) != n {
					t.Fatalf("recorded stream: id=%q len=%d, want inst/%d", meta.ID, len(recs), n)
				}
			} else {
				// Only the post-rotation tail survives the last periodic
				// snapshot's collection.
				if len(starts) != 1 || starts[0] != n {
					t.Fatalf("segment starts = %v, want [%d]", starts, n)
				}
			}
			if _, err := os.Stat(filepath.Join(instDir, snapshotFile)); err != nil {
				t.Fatalf("snapshot file: %v", err)
			}
		})
	}
}

// TestRemoveDeletesInstanceDir checks deleting a persisted instance removes
// its directory, and a subsequent Recover finds nothing.
func TestRemoveDeletesInstanceDir(t *testing.T) {
	sp := spec.ScenarioSpec{
		Seed:     8,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Persist:  spec.PersistSpec{Enabled: true},
	}
	dir := t.TempDir()
	reg := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
	defer reg.Close()
	h, err := reg.Create(InstanceConfig{ID: "inst", Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	instDir, _ := h.Persisted()
	drivePersist(t, h, 0, 10)
	if err := reg.Remove("inst"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(instDir); !os.IsNotExist(err) {
		t.Fatalf("instance dir still present after Remove: %v", err)
	}
	reg2 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
	defer reg2.Close()
	if n, err := reg2.Recover(); err != nil || n != 0 {
		t.Fatalf("recover after remove: %v (%d instances)", err, n)
	}
}

// TestPersistAllDefault checks the registry-default persistence mode
// (banditd -data-dir with -persist-all): a spec without a persist block is
// still durable, and recovery restores it.
func TestPersistAllDefault(t *testing.T) {
	sp := spec.ScenarioSpec{
		Seed:     8,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
	}
	dir := t.TempDir()
	reg := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir, All: true, SnapshotEvery: 8}})
	h, err := reg.Create(InstanceConfig{ID: "inst", Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Persisted(); !ok {
		t.Fatal("persist-all registry left the instance in-memory")
	}
	drivePersist(t, h, 0, 20)
	reg.CloseAbrupt()

	reg2 := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir, All: true}})
	defer reg2.Close()
	if n, err := reg2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %v (%d instances)", err, n)
	}
	h2, ok := reg2.Get("inst")
	if !ok {
		t.Fatal("recovered instance not registered")
	}
	info, err := h2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slot != 20 {
		t.Fatalf("recovered at slot %d, want 20", info.Slot)
	}
}

// TestReplayRecordedStream records an instance with keep_log, reads the
// stream back, and replays it offline: under the recorded spec the replay
// reproduces the recorded observation average exactly, and under a policy
// override it still consumes the whole stream (the offline-A/B mode).
func TestReplayRecordedStream(t *testing.T) {
	const n = 80
	sp := spec.ScenarioSpec{
		Seed:     8,
		Topology: spec.TopologySpec{N: 10, RequireConnected: true},
		Channel:  spec.ChannelSpec{M: 2},
		Decision: spec.DecisionSpec{UpdateEvery: 4},
		Persist:  spec.PersistSpec{Enabled: true, SnapshotEvery: 16, KeepLog: true},
	}
	dir := t.TempDir()
	reg := NewRegistry(RegistryConfig{Persist: PersistOptions{DataDir: dir}})
	h, err := reg.Create(InstanceConfig{ID: "inst", Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	instDir, _ := h.Persisted()
	var observed float64
	for s := 0; s < n; s++ {
		as, err := h.Assignment()
		if err != nil {
			t.Fatal(err)
		}
		rewards := make([]float64, len(as.Winners))
		slotTotal := 0.0
		for i := range rewards {
			rewards[i] = persistRewardAt(s, i)
			slotTotal += rewards[i]
		}
		observed += slotTotal // per-slot association, matching the kernel's sum
		if _, err := h.Observe([]ObservationBatch{{Played: as.Winners, Rewards: rewards}}); err != nil {
			t.Fatal(err)
		}
	}
	reg.Close()

	meta, recs, err := ReadRecorded(instDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recorded %d slots, want %d", len(recs), n)
	}
	res, err := sim.ReplayScenario(sim.ReplayConfig{Spec: meta.Spec, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != n {
		t.Fatalf("replayed %d slots, want %d", res.Slots, n)
	}
	wantAvg := observed / float64(n)
	if got := res.AvgObservedKbps; got != channel.Kbps(wantAvg) {
		t.Fatalf("replayed observed avg %v kbps, want %v", got, channel.Kbps(wantAvg))
	}

	llr := spec.PolicySpec{Kind: spec.PolicyLLR}
	ab, err := sim.ReplayScenario(sim.ReplayConfig{Spec: meta.Spec, Records: recs, Policy: &llr})
	if err != nil {
		t.Fatal(err)
	}
	if ab.Slots != n || ab.Spec.Policy.Kind != spec.PolicyLLR {
		t.Fatalf("A/B replay: slots=%d policy=%q", ab.Slots, ab.Spec.Policy.Kind)
	}
	if ab.AvgObservedKbps != res.AvgObservedKbps {
		t.Fatalf("A/B replay changed the logged stream: %v vs %v", ab.AvgObservedKbps, res.AvgObservedKbps)
	}
}
