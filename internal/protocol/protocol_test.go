package protocol

import (
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

func buildExt(t *testing.T, n, m int, seed int64) *extgraph.Extended {
	t.Helper()
	nw, err := topology.Random(topology.RandomConfig{N: n}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func randomWeights(k int, seed int64) []float64 {
	src := rng.New(seed)
	w := make([]float64, k)
	for i := range w {
		w[i] = src.Float64()
	}
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for nil extended graph")
	}
	ext := buildExt(t, 5, 2, 1)
	if _, err := New(Config{Ext: ext, R: -1}); err == nil {
		t.Fatal("expected error for negative r")
	}
	if _, err := New(Config{Ext: ext, D: -1}); err == nil {
		t.Fatal("expected error for negative D")
	}
}

func TestDecideWeightsLengthCheck(t *testing.T) {
	ext := buildExt(t, 5, 2, 1)
	rt, err := New(Config{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewDecider().Decide([]float64{1, 2}, nil); err == nil {
		t.Fatal("expected weight length error")
	}
}

func TestDecideOutputIsIndependentSet(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		ext := buildExt(t, 25, 3, seed)
		rt, err := New(Config{Ext: ext, R: 2, D: 0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.NewDecider().Decide(randomWeights(ext.K(), seed+100), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ext.H.IsIndependent(res.Winners) {
			t.Fatalf("seed %d: winners not independent", seed)
		}
		if !ext.Feasible(res.Strategy) {
			t.Fatalf("seed %d: strategy infeasible", seed)
		}
	}
}

func TestDecideOutputIndependentUnderCappedD(t *testing.T) {
	// Even when the mini-round cap cuts the run short, the partial output
	// must be an independent set (Theorem 4 setting).
	f := func(seed int64) bool {
		ext := buildExt(t, 20, 3, seed)
		rt, err := New(Config{Ext: ext, R: 2, D: 2})
		if err != nil {
			return false
		}
		res, err := rt.NewDecider().Decide(randomWeights(ext.K(), seed+5), nil)
		if err != nil {
			return false
		}
		return ext.H.IsIndependent(res.Winners)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecideConvergesUnbounded(t *testing.T) {
	ext := buildExt(t, 30, 4, 7)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.NewDecider().Decide(randomWeights(ext.K(), 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("unbounded run did not converge")
	}
	if res.MiniRounds > ext.K() {
		t.Fatalf("took %d mini-rounds for %d vertices", res.MiniRounds, ext.K())
	}
}

func TestDecideDeterministic(t *testing.T) {
	ext := buildExt(t, 20, 3, 3)
	w := randomWeights(ext.K(), 4)
	rt1, _ := New(Config{Ext: ext, R: 2})
	rt2, _ := New(Config{Ext: ext, R: 2})
	a, err := rt1.NewDecider().Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt2.NewDecider().Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Winners) != len(b.Winners) {
		t.Fatal("non-deterministic winner count")
	}
	for i := range a.Winners {
		if a.Winners[i] != b.Winners[i] {
			t.Fatal("non-deterministic winners")
		}
	}
}

func TestWeightByMiniRoundMonotone(t *testing.T) {
	f := func(seed int64) bool {
		ext := buildExt(t, 25, 3, seed)
		rt, err := New(Config{Ext: ext, R: 2, D: 10})
		if err != nil {
			return false
		}
		res, err := rt.NewDecider().Decide(randomWeights(ext.K(), seed+9), nil)
		if err != nil {
			return false
		}
		prev := 0.0
		for _, w := range res.WeightByMiniRound {
			if w < prev-1e-12 {
				return false
			}
			prev = w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// firstRoundLeaders runs a fresh decider's first election under w: every
// vertex a Candidate, the rank order sorted from scratch.
func firstRoundLeaders(rt *Runtime, w []float64) []int {
	dec := rt.NewDecider()
	dec.rankOrder(&dec.scratch, w)
	dec.scratch.startCandidates(len(w))
	return dec.selectLeaders(&dec.scratch, len(w))
}

func TestLeadersPairwiseSeparated(t *testing.T) {
	// Leaders of the first mini-round must be at least 2r+2 hops apart.
	ext := buildExt(t, 40, 3, 5)
	rt, err := New(Config{Ext: ext, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	leaders := firstRoundLeaders(rt, randomWeights(ext.K(), 6))
	if len(leaders) == 0 {
		t.Fatal("no leaders selected")
	}
	for i := 0; i < len(leaders); i++ {
		for j := i + 1; j < len(leaders); j++ {
			d := ext.H.HopDist(leaders[i], leaders[j])
			if d >= 0 && d <= 2*rt.R()+1 {
				t.Fatalf("leaders %d and %d only %d hops apart", leaders[i], leaders[j], d)
			}
		}
	}
}

func TestGlobalMaxIsAlwaysLeader(t *testing.T) {
	ext := buildExt(t, 30, 3, 9)
	w := randomWeights(ext.K(), 10)
	best := 0
	for v := range w {
		if w[v] > w[best] {
			best = v
		}
	}
	rt, _ := New(Config{Ext: ext, R: 2})
	leaders := firstRoundLeaders(rt, w)
	found := false
	for _, l := range leaders {
		if l == best {
			found = true
		}
	}
	if !found {
		t.Fatal("the globally heaviest vertex was not selected as a leader")
	}
}

func TestEqualWeightsTieBreak(t *testing.T) {
	// With all-equal weights the id tie-break must still produce a valid
	// decision (this is the first-round situation of Algorithm 2).
	ext := buildExt(t, 20, 3, 11)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = 1
	}
	rt, _ := New(Config{Ext: ext, R: 2, D: 0})
	res, err := rt.NewDecider().Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("equal-weight decision did not converge")
	}
	if len(res.Winners) == 0 {
		t.Fatal("no winners under equal weights")
	}
	if !ext.H.IsIndependent(res.Winners) {
		t.Fatal("winners not independent under ties")
	}
}

func TestLinearWorstCaseNeedsManyMiniRounds(t *testing.T) {
	// §IV-D: a linear network with strictly decreasing weights serializes
	// leader election; the run needs Θ(N) mini-rounds (with M=1 each node
	// is one vertex and r-balls contain ~2r+1 nodes, so roughly N/(loop
	// progress per round) rounds).
	nw, err := topology.Linear(40, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = float64(len(w) - i) // strictly decreasing along the line
	}
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.NewDecider().Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A single leader (the head) is selected each mini-round; its 3r+1
	// broadcast settles ~r-ball around it, so ≥ N/(3r+2) ≈ 5 rounds.
	if res.MiniRounds < 4 {
		t.Fatalf("linear worst case finished in %d mini-rounds, expected serialization", res.MiniRounds)
	}
	// Compare with a random network of the same size, which converges in
	// a small constant number of mini-rounds (Theorem 4 / Fig. 6).
	extR := buildExt(t, 40, 1, 21)
	rtR, _ := New(Config{Ext: extR, R: 2, D: 0})
	resR, err := rtR.NewDecider().Decide(randomWeights(extR.K(), 22), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resR.MiniRounds >= res.MiniRounds {
		t.Fatalf("random net took %d mini-rounds, linear took %d; expected random ≪ linear",
			resR.MiniRounds, res.MiniRounds)
	}
}

func TestRandomNetworksConvergeFast(t *testing.T) {
	// Theorem 4 / Fig. 6: random networks converge in a small constant
	// number of mini-rounds regardless of size.
	for _, n := range []int{30, 60, 100} {
		ext := buildExt(t, n, 5, int64(n))
		rt, _ := New(Config{Ext: ext, R: 2, D: 0})
		res, err := rt.NewDecider().Decide(randomWeights(ext.K(), int64(n)+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.MiniRounds > 8 {
			t.Fatalf("N=%d took %d mini-rounds, want O(1)", n, res.MiniRounds)
		}
	}
}

func TestMessageComplexityBounded(t *testing.T) {
	// §IV-C: per-vertex messages are O(r²+D) — independent of N. Compare
	// the max per-vertex relay count across two network sizes; it must
	// not scale with N.
	maxAt := func(n int) int {
		ext := buildExt(t, n, 3, int64(n)*7)
		rt, _ := New(Config{Ext: ext, R: 2, D: 4})
		dec := rt.NewDecider()
		// Use a full previous strategy so WB cost is realistic.
		res1, err := dec.Decide(randomWeights(ext.K(), 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := dec.Decide(randomWeights(ext.K(), 2), res1.Winners)
		if err != nil {
			t.Fatal(err)
		}
		return res2.Stats.MaxMessages()
	}
	small := maxAt(40)
	large := maxAt(160)
	if large > small*4 {
		t.Fatalf("per-vertex messages scaled with N: %d → %d", small, large)
	}
}

func TestStatsAccounting(t *testing.T) {
	ext := buildExt(t, 20, 3, 13)
	rt, _ := New(Config{Ext: ext, R: 2, D: 3})
	res, err := rt.NewDecider().Decide(randomWeights(ext.K(), 14), []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WeightBroadcasts != 2 {
		t.Fatalf("WeightBroadcasts = %d, want 2", res.Stats.WeightBroadcasts)
	}
	if res.Stats.LeaderDeclarations == 0 || res.Stats.LocalBroadcasts == 0 {
		t.Fatal("leader/local broadcast counters empty")
	}
	wantTimeslots := 25 + res.MiniRounds*(5+8) // (2r+1)² + D((2r+1)+(3r+2)) with r=2
	if res.Stats.MiniTimeslots != wantTimeslots {
		t.Fatalf("MiniTimeslots = %d, want %d", res.Stats.MiniTimeslots, wantTimeslots)
	}
}

func TestDecideBadPrevPlayed(t *testing.T) {
	ext := buildExt(t, 5, 2, 1)
	rt, _ := New(Config{Ext: ext})
	if _, err := rt.NewDecider().Decide(randomWeights(ext.K(), 1), []int{999}); err == nil {
		t.Fatal("expected range error for bad prevPlayed")
	}
}

func TestDistributedMatchesCentralizedQuality(t *testing.T) {
	// Theorem 3: the distributed output should be comparable to the
	// centralized robust PTAS. Verify the distributed result is at least
	// 1/ρ_theorem of the exact optimum on small instances.
	for seed := int64(0); seed < 8; seed++ {
		ext := buildExt(t, 12, 2, seed)
		w := randomWeights(ext.K(), seed+50)
		rt, _ := New(Config{Ext: ext, R: 2, D: 0})
		res, err := rt.NewDecider().Decide(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := mwis.Instance{G: ext.H, W: w}
		exact, err := (mwis.Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := in.Weight(exact)
		got := in.Weight(res.Winners)
		// Theorem 2 bound with M=2, r=2: ρ = sqrt(2·25) ≈ 7.07. In
		// practice the distributed algorithm is far better; assert the
		// theorem bound strictly.
		rho := 7.08
		if got < opt/rho {
			t.Fatalf("seed %d: distributed weight %v below OPT/ρ (OPT=%v)", seed, got, opt)
		}
	}
}

func TestWinnersNeighborsAreNotWinners(t *testing.T) {
	// Direct check of the removal semantics across mini-rounds.
	f := func(seed int64) bool {
		ext := buildExt(t, 30, 3, seed)
		rt, err := New(Config{Ext: ext, R: 1, D: 0})
		if err != nil {
			return false
		}
		res, err := rt.NewDecider().Decide(randomWeights(ext.K(), seed+3), nil)
		if err != nil {
			return false
		}
		inWin := map[int]bool{}
		for _, v := range res.Winners {
			inWin[v] = true
		}
		for _, v := range res.Winners {
			for _, u := range ext.H.Neighbors(v) {
				if inWin[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeWithGreedySolver(t *testing.T) {
	ext := buildExt(t, 25, 3, 17)
	rt, err := New(Config{Ext: ext, R: 2, Solver: mwis.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.NewDecider().Decide(randomWeights(ext.K(), 18), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.H.IsIndependent(res.Winners) {
		t.Fatal("greedy-solver winners not independent")
	}
}

// TestBallPrecomputationMatchesGraph checks every hop-ball bitset row of
// the Runtime, at all three radii, and the oracle's ball lists against
// graph.Ball.
func TestBallPrecomputationMatchesGraph(t *testing.T) {
	ext := buildExt(t, 15, 2, 19)
	rt, _ := New(Config{Ext: ext, R: 2})
	ref := newReferenceRuntime(rt)
	g := ext.H
	for _, b := range []struct {
		name   string
		radius int
		rows   [][]uint64
		lists  [][]int
	}{
		{"ballR", 2, rt.ballR, ref.ballR},
		{"ball2R1", 5, rt.ball2R1, ref.ball2R1},
		{"ballLB", 8, rt.ballLB, ref.ballLB},
	} {
		for v := 0; v < g.N(); v++ {
			want := g.Ball(v, b.radius)
			var got []int
			for wi, word := range b.rows[v] {
				for ; word != 0; word &= word - 1 {
					got = append(got, wi*64+bits.TrailingZeros64(word))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s row %d holds %v, want %v", b.name, v, got, want)
			}
			if !reflect.DeepEqual(b.lists[v], want) {
				t.Fatalf("reference %s[%d] = %v, want %v", b.name, v, b.lists[v], want)
			}
		}
	}
}

func TestEmptyGraphDecide(t *testing.T) {
	ext, err := extgraph.Build(graph.New(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.NewDecider().Decide(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Winners) != 0 || !res.Converged {
		t.Fatalf("empty graph result: %+v", res)
	}
}

// TestConcurrentDecideAccounting shares one Runtime across many goroutines,
// one Decider each — the serving runtime hosts many instances on one
// memoized runtime — and checks every concurrent decision reproduces the
// serial run exactly, including the full message/mini-timeslot accounting.
// Run under -race this is the proof that Deciders only read the Runtime's
// precomputed balls.
func TestConcurrentDecideAccounting(t *testing.T) {
	ext := buildExt(t, 14, 3, 21)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, ext.K())
	src := rng.New(22)
	for i := range weights {
		weights[i] = src.Float64()
	}
	ref, err := rt.NewDecider().Decide(weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := ref.Winners
	ref2, err := rt.NewDecider().Decide(weights, prev)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := rt.NewDecider()
			for it := 0; it < iters; it++ {
				// Alternate the WB pattern so both code paths run hot.
				want := ref
				var played []int
				if it%2 == 1 {
					want, played = ref2, prev
				}
				got, err := dec.Decide(weights, played)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Winners, want.Winners) {
					t.Errorf("concurrent winners %v != serial %v", got.Winners, want.Winners)
					return
				}
				if !reflect.DeepEqual(got.Strategy, want.Strategy) {
					t.Errorf("concurrent strategy %v != serial %v", got.Strategy, want.Strategy)
					return
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("concurrent stats %+v != serial %+v", got.Stats, want.Stats)
					return
				}
				if got.MiniRounds != want.MiniRounds || got.Converged != want.Converged {
					t.Errorf("concurrent rounds/convergence (%d,%v) != serial (%d,%v)",
						got.MiniRounds, got.Converged, want.MiniRounds, want.Converged)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestManyInstancesMessageAccounting runs independent per-instance decision
// sequences concurrently (distinct runtimes, the multi-tenant serving
// shape) and checks each instance's accounting matches its own serial
// replay: concurrency must not leak messages across instances.
func TestManyInstancesMessageAccounting(t *testing.T) {
	const instances = 6
	type seq struct {
		rt      *Runtime
		weights []float64
	}
	seqs := make([]seq, instances)
	for i := range seqs {
		ext := buildExt(t, 10, 2, int64(30+i))
		rt, err := New(Config{Ext: ext, R: 2, D: 4})
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, ext.K())
		src := rng.New(int64(100 + i))
		for k := range weights {
			weights[k] = src.Float64()
		}
		seqs[i] = seq{rt: rt, weights: weights}
	}
	// Serial reference: total messages and broadcasts of a 3-decision chain.
	type account struct {
		messages   int
		broadcasts int
		winners    []int
	}
	replay := func(s seq) (account, error) {
		var acc account
		var prev []int
		dec := s.rt.NewDecider()
		for d := 0; d < 3; d++ {
			res, err := dec.Decide(s.weights, prev)
			if err != nil {
				return acc, err
			}
			for _, m := range res.Stats.MessagesPerVertex() {
				acc.messages += m
			}
			acc.broadcasts += res.Stats.WeightBroadcasts + res.Stats.LocalBroadcasts
			prev = res.Winners
			acc.winners = res.Winners
		}
		return acc, nil
	}
	want := make([]account, instances)
	for i, s := range seqs {
		var err error
		want[i], err = replay(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := replay(seqs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("instance %d: concurrent accounting %+v != serial %+v", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
}
