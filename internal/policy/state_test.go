package policy

import (
	"encoding/json"
	"testing"

	"multihopbandit/internal/rng"
)

// snapshotPolicies builds one of each Snapshotter policy over k arms.
func snapshotPolicies(t *testing.T, k int) map[string]func() Policy {
	t.Helper()
	means := make([]float64, k)
	for i := range means {
		means[i] = float64(i%8+1) / 9
	}
	return map[string]func() Policy{
		"zhou-li": func() Policy { p, _ := NewZhouLi(k); return p },
		"llr":     func() Policy { p, _ := NewLLR(k, k/2); return p },
		"cucb":    func() Policy { p, _ := NewCUCB(k); return p },
		"oracle":  func() Policy { p, _ := NewOracle(means); return p },
		"discounted-zhou-li": func() Policy {
			p, _ := NewDiscountedZhouLi(k, 0.95)
			return p
		},
		// Every fresh instance gets the same seeded stream, as a served
		// instance rebuilt from its spec does.
		"eps-greedy": func() Policy {
			p, _ := NewEpsilonGreedy(k, 0.3, rng.New(7))
			return p
		},
	}
}

// TestSnapshotRestoreRoundTrip drives a policy, snapshots it through a JSON
// round trip into a fresh instance, and checks both instances stay
// bit-identical over further updates. Every round reads the indices, as a
// decision does, so randomized policies advance their streams.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const k = 24
	for name, mk := range snapshotPolicies(t, k) {
		orig := mk()
		for r := 0; r < 40; r++ {
			orig.Indices()
			played, rewards := hotPathRound(k, r)
			if err := orig.Update(played, rewards); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		blob, err := json.Marshal(orig.(Snapshotter).Snapshot())
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var state State
		if err := json.Unmarshal(blob, &state); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		restored := mk()
		if err := restored.(Snapshotter).Restore(state); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if restored.Round() != orig.Round() {
			t.Fatalf("%s: restored round %d, want %d", name, restored.Round(), orig.Round())
		}
		for r := 40; r < 60; r++ {
			played, rewards := hotPathRound(k, r)
			if err := orig.Update(played, rewards); err != nil {
				t.Fatal(err)
			}
			if err := restored.Update(played, rewards); err != nil {
				t.Fatal(err)
			}
			a, b := orig.Indices(), restored.Indices()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: diverged at round %d arm %d: %v vs %v", name, r, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	zl, _ := NewZhouLi(8)
	llr, _ := NewLLR(8, 4)
	s := zl.Snapshot()
	if err := llr.Restore(s); err == nil {
		t.Fatal("restoring a zhou-li snapshot into llr should fail")
	}
	small, _ := NewZhouLi(4)
	if err := small.Restore(s); err == nil {
		t.Fatal("restoring an 8-arm snapshot into a 4-arm policy should fail")
	}
	bad := s
	bad.Round = -1
	if err := zl.Restore(bad); err == nil {
		t.Fatal("restoring a negative round should fail")
	}
	bad = s
	bad.Counts = append([]int(nil), s.Counts...)
	bad.Counts[0] = -3
	if err := zl.Restore(bad); err == nil {
		t.Fatal("restoring a negative count should fail")
	}
	eg, _ := NewEpsilonGreedy(8, 0.1, rng.New(1))
	es := eg.Snapshot()
	es.Draws = -1
	if err := eg.Restore(es); err == nil {
		t.Fatal("restoring a negative stream position should fail")
	}
	// Discounted length checks.
	disc, _ := NewDiscountedZhouLi(8, 0.9)
	ds := disc.Snapshot()
	ds.Sums = ds.Sums[:4]
	if err := disc.Restore(ds); err == nil {
		t.Fatal("restoring truncated discounted sums should fail")
	}
}
