package policy

import (
	"slices"
	"testing"

	"multihopbandit/internal/rng"
)

// hotPathPolicies builds one of each allocation-free policy over k arms.
func hotPathPolicies(t testing.TB, k int) map[string]Policy {
	t.Helper()
	zl, err := NewZhouLi(k)
	if err != nil {
		t.Fatal(err)
	}
	llr, err := NewLLR(k, k/2)
	if err != nil {
		t.Fatal(err)
	}
	cucb, err := NewCUCB(k)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := NewDiscountedZhouLi(k, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	means := make([]float64, k)
	for i := range means {
		means[i] = float64(i%8+1) / 9
	}
	oracle, err := NewOracle(means)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Policy{
		"zhou-li":            zl,
		"llr":                llr,
		"cucb":               cucb,
		"discounted-zhou-li": disc,
		"oracle":             oracle,
	}
}

// hotPathRound plays a fixed arm subset with deterministic rewards.
func hotPathRound(k, round int) (played []int, rewards []float64) {
	played = make([]int, 0, 8)
	rewards = make([]float64, 0, 8)
	for i := 0; i < 8; i++ {
		played = append(played, (round*3+i*5)%k)
		rewards = append(rewards, float64((round+i)%10)/10)
	}
	return played, rewards
}

// TestWriteIndicesMatchesIndices asserts the allocation-free path is
// bit-identical to the allocating one on every policy, including the
// randomized ε-greedy (compared across two identically seeded instances).
func TestWriteIndicesMatchesIndices(t *testing.T) {
	const k = 48
	for name, pol := range hotPathPolicies(t, k) {
		for r := 0; r < 50; r++ {
			played, rewards := hotPathRound(k, r)
			if err := pol.Update(played, rewards); err != nil {
				t.Fatalf("%s: update: %v", name, err)
			}
		}
		want := pol.Indices()
		got := make([]float64, k)
		pol.(IndexWriter).WriteIndices(got, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: arm %d: Indices=%v WriteIndices=%v", name, i, want[i], got[i])
			}
		}
	}

	// ε-greedy consumes random draws per call, so compare two policies on
	// identical streams instead of two calls on one policy.
	mk := func() *EpsilonGreedy {
		p, err := NewEpsilonGreedy(k, 0.3, rng.New(7).Split("eps"))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	for r := 0; r < 20; r++ {
		played, rewards := hotPathRound(k, r)
		if err := a.Update(played, rewards); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(played, rewards); err != nil {
			t.Fatal(err)
		}
		want := a.Indices()
		got := make([]float64, k)
		b.WriteIndices(got, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("eps-greedy: round %d arm %d: Indices=%v WriteIndices=%v", r, i, want[i], got[i])
			}
		}
	}
}

// TestHotPathNoAllocs guards the per-round hot path of the serving runtime:
// neither the estimator update nor the buffered index computation may
// allocate.
func TestHotPathNoAllocs(t *testing.T) {
	const k = 48
	for name, pol := range hotPathPolicies(t, k) {
		played, rewards := hotPathRound(k, 1)
		dst := make([]float64, k)
		// Warm up so count>0 arms exercise the bonus branch.
		for r := 0; r < 10; r++ {
			p, rw := hotPathRound(k, r)
			if err := pol.Update(p, rw); err != nil {
				t.Fatal(err)
			}
		}
		wr := pol.(IndexWriter)
		if got := testing.AllocsPerRun(100, func() {
			if err := pol.Update(played, rewards); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: Update allocates %.1f times per round, want 0", name, got)
		}
		if got := testing.AllocsPerRun(100, func() { wr.WriteIndices(dst, nil) }); got != 0 {
			t.Errorf("%s: WriteIndices allocates %.1f times per call, want 0", name, got)
		}
	}
}

// BenchmarkPolicyUpdate measures one serving round of the index-update hot
// path — Update followed by a buffered index recomputation — for each
// policy in name order. Those cases replay one fixed 8-arm round, so the 40
// other arms keep their warm-up counts and Zhou-Li takes the logarithm for
// them; the zhou-li-rotating case cycles through rounds that play every arm,
// so its counts grow with the round and the bonus's early-out is measured
// too. Guards the zero-allocation property via -benchmem.
func BenchmarkPolicyUpdate(b *testing.B) {
	const k = 48
	pols := hotPathPolicies(b, k)
	names := make([]string, 0, len(pols))
	for name := range pols {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b.Run(name, func(b *testing.B) { benchPolicyRounds(b, pols[name], k, 1) })
	}
	zl, err := NewZhouLi(k)
	if err != nil {
		b.Fatal(err)
	}
	// hotPathRound's rounds 1–16 play all 48 arms between them.
	b.Run("zhou-li-rotating", func(b *testing.B) { benchPolicyRounds(b, zl, k, 16) })
}

// benchPolicyRounds warms pol with hotPathRound's first ten rounds, then
// times Update and WriteIndices over its rounds 1 to cycle in turn.
func benchPolicyRounds(b *testing.B, pol Policy, k, cycle int) {
	played := make([][]int, cycle)
	rewards := make([][]float64, cycle)
	for r := range played {
		played[r], rewards[r] = hotPathRound(k, r+1)
	}
	dst := make([]float64, k)
	wr := pol.(IndexWriter)
	for r := 0; r < 10; r++ {
		p, rw := hotPathRound(k, r)
		if err := pol.Update(p, rw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % cycle
		if err := pol.Update(played[r], rewards[r]); err != nil {
			b.Fatal(err)
		}
		wr.WriteIndices(dst, nil)
	}
}
