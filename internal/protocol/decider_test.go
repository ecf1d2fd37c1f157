package protocol

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// matchesReference reports whether got equals the oracle's Result in every
// field, with its MessagesPerVertex() equal to the oracle's per-vertex
// counts. The broadcast record those counts are derived from is the one
// field the oracle does not fill; the counts stand in for it.
func matchesReference(want *Result, wantMessages []int, got *Result) bool {
	bare := *got
	bare.Stats.sent = broadcasts{}
	return reflect.DeepEqual(want, &bare) && reflect.DeepEqual(wantMessages, got.Stats.MessagesPerVertex())
}

// decideSequence drives one Decider and the from-scratch reference through
// an identical sequence of decisions and asserts every Result is deeply
// equal (winners, strategy, convergence, per-mini-round series, and the
// full communication Stats, per-vertex message counts included).
func decideSequence(t *testing.T, rt *Runtime, dec *Decider, weightSeq [][]float64) {
	t.Helper()
	ref := newReferenceRuntime(rt)
	var prevRef, prevInc []int
	for i, w := range weightSeq {
		want, wantMessages, err := referenceDecide(ref, w, prevRef)
		if err != nil {
			t.Fatalf("decision %d: reference: %v", i, err)
		}
		got, err := dec.Decide(w, prevInc)
		if err != nil {
			t.Fatalf("decision %d: incremental: %v", i, err)
		}
		if !matchesReference(want, wantMessages, got) {
			t.Fatalf("decision %d: incremental result diverged:\n got %+v %v\nwant %+v %v",
				i, got, got.Stats.MessagesPerVertex(), want, wantMessages)
		}
		prevRef = want.Winners
		prevInc = got.Winners
	}
}

// TestDeciderMatchesReferenceRandomized is the seeded randomized
// equivalence suite of the incremental decision plane: across random
// topologies, channel counts, ball parameters r, mini-round caps D and
// solvers, a Decider must produce bit-identical Results to the stateless
// reference — through weight sequences that mutate all weights, mutate a
// few, and repeat exactly (exercising the memo and the epoch cache). Seeds
// 0–11 cycle through the default Hybrid, Greedy and a budgeted Hybrid;
// seeds 12–17 alternate a budgeted Exact and RobustPTAS, which has no body
// over a prepared ball and solves on a graph rebuilt from it.
func TestDeciderMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 18; seed++ {
		src := rng.New(seed * 31)
		n := 8 + src.Intn(18)
		m := 1 + src.Intn(3)
		r := 1 + src.Intn(3)
		capD := src.Intn(4) // 0 = unbounded
		var solver mwis.Solver
		switch {
		case seed >= 12 && seed%2 == 0:
			solver = mwis.Exact{Budget: 64} // budget stops without a fallback
		case seed >= 12:
			solver = mwis.RobustPTAS{}
		case seed%3 == 0:
			solver = nil // default Hybrid
		case seed%3 == 1:
			solver = mwis.Greedy{}
		default:
			solver = mwis.Hybrid{Budget: 16} // budget-exceeded incumbents
		}
		ext := buildExt(t, n, m, seed+100)
		rt, err := New(Config{Ext: ext, R: r, D: capD, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		dec := rt.NewDecider()
		k := ext.K()
		w := make([]float64, k)
		for i := range w {
			w[i] = src.Float64()
		}
		var seq [][]float64
		for step := 0; step < 15; step++ {
			switch step % 5 {
			case 0, 1: // perturb a few weights (realistic slow drift)
				next := append([]float64(nil), w...)
				for j := 0; j < 1+src.Intn(3); j++ {
					next[src.Intn(k)] = src.Float64()
				}
				w = next
			case 2: // repeat exactly: epoch short-circuit territory
			case 3: // tiny drift: sensitivity-skip territory (within slack)
				next := append([]float64(nil), w...)
				for j := 0; j < 1+src.Intn(4); j++ {
					next[src.Intn(k)] += (src.Float64() - 0.5) * 1e-9
				}
				w = next
			default: // redraw everything
				next := make([]float64, k)
				for i := range next {
					next[i] = src.Float64()
				}
				w = next
			}
			seq = append(seq, w)
		}
		decideSequence(t, rt, dec, seq)
		if st := dec.Stats(); st.Decisions() != int64(len(seq)) {
			t.Fatalf("seed %d: decider served %d decisions, want %d (stats %+v)",
				seed, st.Decisions(), len(seq), st)
		}
	}
}

// TestDeciderMatchesReferenceFig6Scale runs the differential check at the
// paper's Fig. 6 sizes, where leader balls hold hundreds of vertices and
// the mini-round cap truncates the decision: random networks of target
// degree 6 at 100×5 (D=4 and D=0), 200×10 (D=4) and 100×10 (D=0), r=2,
// seeds 1–3. For each, one Decider held across a four-step trajectory must
// deep-equal the oracle at every step, Stats and per-vertex message counts
// included: a first decision (prevPlayed nil), a second that rebroadcasts
// the first's winners under the same weights, then two that each move
// about one weight in six. Three weight regimes run on every case:
//
//   - drift: continuous draws, each moved weight going to 0.9w + 0.1u;
//   - tied: every weight 2.0 (zhou-li's warm-up, where only the rank
//     order's id tie-break separates vertices), moved weights going to
//     quarter steps;
//   - quarter: k/4 for k in 0..8, moved weights redrawn the same way, so
//     the rank order's merge runs among exact ties.
//
// Under drift, every D=4 case stops after 4 mini-rounds with candidates
// left, and every D=0 case converges.
func TestDeciderMatchesReferenceFig6Scale(t *testing.T) {
	quarter := func(src *rng.Source) float64 { return float64(src.Intn(9)) / 4 }
	regimes := []struct {
		name string
		init func(src *rng.Source) float64
		move func(w float64, src *rng.Source) float64
	}{
		{"drift", (*rng.Source).Float64, func(w float64, src *rng.Source) float64 { return 0.9*w + 0.1*src.Float64() }},
		{"tied", func(*rng.Source) float64 { return 2.0 }, func(_ float64, src *rng.Source) float64 { return quarter(src) }},
		{"quarter", quarter, func(_ float64, src *rng.Source) float64 { return quarter(src) }},
	}
	cases := []struct{ n, m, d int }{{100, 5, 4}, {100, 5, 0}, {200, 10, 4}, {100, 10, 0}}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			nw, err := topology.Random(topology.RandomConfig{N: c.n, TargetDegree: 6}, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			ext, err := extgraph.Build(nw.G, c.m)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(Config{Ext: ext, R: 2, D: c.d})
			if err != nil {
				t.Fatal(err)
			}
			ref := newReferenceRuntime(rt)
			for _, reg := range regimes {
				desc := fmt.Sprintf("%dx%d D=%d seed %d %s", c.n, c.m, c.d, seed, reg.name)
				src := rng.New(seed)
				w := make([]float64, ext.K())
				for i := range w {
					w[i] = reg.init(src)
				}
				dec := rt.NewDecider()
				var prev []int
				for step := 0; step < 4; step++ {
					if step >= 2 {
						w = append([]float64(nil), w...)
						for i := range w {
							if src.Intn(6) == 0 {
								w[i] = reg.move(w[i], src)
							}
						}
					}
					want, wantMessages, err := referenceDecide(ref, w, prev)
					if err != nil {
						t.Fatalf("%s step %d: reference: %v", desc, step, err)
					}
					got, err := dec.Decide(w, prev)
					if err != nil {
						t.Fatalf("%s step %d: decider: %v", desc, step, err)
					}
					if !matchesReference(want, wantMessages, got) {
						t.Fatalf("%s step %d: decider diverged from the reference:\n got %+v\nwant %+v", desc, step, got, want)
					}
					if truncated := c.d > 0; reg.name == "drift" &&
						(got.Converged == truncated || (truncated && got.MiniRounds != c.d)) {
						t.Fatalf("%s step %d: converged %v after %d mini-rounds", desc, step, got.Converged, got.MiniRounds)
					}
					prev = got.Winners
				}
			}
		}
	}
}

// FuzzDeciderMatchesReference drives one Decider and the from-scratch
// oracle through a fuzzed weight trajectory and requires deep-equal Results
// at every step. The first six bytes choose the instance: n ≤ 30 nodes,
// m ≤ 3 channels, r ≤ 3, D ≤ 4 (0 = unbounded), the local solver (default
// Hybrid, Greedy, or Hybrid with a 16-node budget) and the topology seed.
// Each further byte is one step, its low two bits the move: a full redraw,
// an exact repeat, all weights tied at one value, or ±1e-12 drifts of a few
// weights. The high six bits parameterize the move, and an rng seeded by
// the whole input draws its values. The committed corpus under
// testdata/fuzz holds tie and tiny-drift trajectories; tie-drift-rounding
// is a drift that closes a slack margin exactly, which the certificate
// replayed until it was deflated by a rounding bound.
func FuzzDeciderMatchesReference(f *testing.F) {
	f.Add([]byte{24, 2, 1, 4, 0, 7, 0, 3, 3, 1, 0, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		n, m, r, capD := 1+int(data[0])%30, 1+int(data[1])%3, 1+int(data[2])%3, int(data[3])%5
		solver := []mwis.Solver{nil, mwis.Greedy{}, mwis.Hybrid{Budget: 16}}[data[4]%3]
		nw, err := topology.Random(topology.RandomConfig{N: n}, rng.New(int64(data[5])))
		if err != nil {
			t.Fatal(err)
		}
		ext, err := extgraph.Build(nw.G, m)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{Ext: ext, R: r, D: capD, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(0)
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		src := rng.New(seed)
		steps := data[6:]
		if len(steps) > 24 {
			steps = steps[:24]
		}
		k := ext.K()
		w := make([]float64, k)
		dec := rt.NewDecider()
		ref := newReferenceRuntime(rt)
		var prevRef, prevDec []int
		for i, b := range steps {
			next := append([]float64(nil), w...)
			switch b & 3 {
			case 0: // redraw
				for j := range next {
					next[j] = src.Float64()
				}
			case 1: // exact repeat
			case 2: // every weight tied
				for j := range next {
					next[j] = float64(b>>2) / 64
				}
			case 3: // ±1e-12 drifts
				for c := 0; c <= int(b>>2)%4; c++ {
					j := src.Intn(k)
					if next[j] < 1e-12 || src.Intn(2) == 0 {
						next[j] += 1e-12
					} else {
						next[j] -= 1e-12
					}
				}
			}
			w = next
			want, wantMessages, err := referenceDecide(ref, w, prevRef)
			if err != nil {
				t.Fatalf("step %d: reference: %v", i, err)
			}
			got, err := dec.Decide(w, prevDec)
			if err != nil {
				t.Fatalf("step %d: decider: %v", i, err)
			}
			if !matchesReference(want, wantMessages, got) {
				t.Fatalf("step %d (move %d): decider diverged from the reference:\n got %+v\nwant %+v", i, b&3, got, want)
			}
			prevRef, prevDec = want.Winners, got.Winners
		}
	})
}

// TestDeciderEpochSkip pins the short-circuit behavior: repeating the exact
// weight vector returns the identical cached *Result without rerunning the
// protocol, both with and without the caller-side unchanged hint, and any
// weight change breaks the epoch.
func TestDeciderEpochSkip(t *testing.T) {
	ext := buildExt(t, 15, 2, 3)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	w := randomWeights(ext.K(), 5)

	first, err := dec.Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := first.Winners
	again, err := dec.Decide(w, prev)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("second decision has different prevPlayed (nil vs winners) but returned the cached result")
	}
	skip, err := dec.Decide(w, prev)
	if err != nil {
		t.Fatal(err)
	}
	if skip != again {
		t.Fatal("identical inputs did not return the cached *Result")
	}
	hinted, err := dec.DecideEpoch(w, prev, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hinted != again {
		t.Fatal("hinted epoch decision did not return the cached *Result")
	}
	if st := dec.Stats(); st.EpochSkips != 2 || st.FullDecides != 2 {
		t.Fatalf("stats %+v, want 2 full decides and 2 epoch skips", st)
	}

	w2 := append([]float64(nil), w...)
	w2[0] = 1 - w2[0]
	fresh, err := dec.Decide(w2, prev)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == again {
		t.Fatal("changed weights still returned the cached result")
	}
	if st := dec.Stats(); st.FullDecides != 3 {
		t.Fatalf("stats %+v, want 3 full decides after the weight change", st)
	}
}

// TestDeciderMemoCounters checks that repeated structurally identical
// decisions hit the per-leader memo and that hits never change the output.
func TestDeciderMemoCounters(t *testing.T) {
	ext := buildExt(t, 20, 2, 7)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	w := randomWeights(ext.K(), 9)
	// Alternate two weight vectors so the epoch cache (depth 1) never
	// fires, but every leader's ball instance repeats: the second pass of
	// each vector must hit the memo... except it also alternates, so use
	// the same vector with alternating prevPlayed instead.
	first, err := dec.Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := dec.Decide(w, first.Winners) // same weights, new prevPlayed
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Winners, second.Winners) {
		t.Fatalf("same weights decided different winners: %v vs %v", first.Winners, second.Winners)
	}
	st := dec.Stats()
	if st.LeaderSkips == 0 {
		t.Fatalf("no leader skips across identical-weight decisions (stats %+v)", st)
	}
	if st.MemoMisses == 0 || st.MemoHitRate() <= 0 || st.MemoHitRate() >= 1 {
		t.Fatalf("implausible memo accounting %+v (hit rate %v)", st, st.MemoHitRate())
	}
	if st.LeaderResolves() != st.MemoStructHits+st.MemoMisses {
		t.Fatalf("LeaderResolves %d != struct hits %d + misses %d", st.LeaderResolves(), st.MemoStructHits, st.MemoMisses)
	}
}

// TestDeciderValidation mirrors the reference validation errors.
func TestDeciderValidation(t *testing.T) {
	ext := buildExt(t, 8, 2, 1)
	rt, err := New(Config{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	if _, err := dec.Decide(make([]float64, 3), nil); err == nil {
		t.Fatal("short weight vector accepted")
	}
	w := randomWeights(ext.K(), 2)
	if _, err := dec.Decide(w, []int{ext.K()}); err == nil {
		t.Fatal("out-of-range played vertex accepted")
	}
	if _, err := dec.Decide(w, nil); err != nil {
		t.Fatalf("decider did not recover after validation errors: %v", err)
	}
}

// TestDecideRejectsNaNWeights pins the NaN guard: the rank order needs a
// total order on the weights, so a NaN weight — at the first, a middle or
// the last vertex, under either solver — fails the decide with an error
// naming the vertex before any election, where the oracle fails one level
// down (the never-beaten NaN vertex leads and its local solve rejects it).
// The failed decide must leave no trace: the next finite decide equals a
// fresh decider's.
func TestDecideRejectsNaNWeights(t *testing.T) {
	ext := buildExt(t, 16, 3, 37)
	k := ext.K()
	for _, solver := range []mwis.Solver{nil, mwis.Greedy{}} {
		rt, err := New(Config{Ext: ext, R: 2, D: 3, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceRuntime(rt)
		dec := rt.NewDecider()
		first, err := dec.Decide(randomWeights(k, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int{0, k / 2, k - 1} {
			w := randomWeights(k, int64(v)+2)
			w[v] = math.NaN()
			if _, err := dec.Decide(w, first.Winners); err == nil ||
				!strings.Contains(err.Error(), fmt.Sprintf("vertex %d ", v)) {
				t.Fatalf("solver %v: NaN at vertex %d: error %v, want one naming the vertex", solver, v, err)
			}
			if _, _, err := referenceDecide(ref, w, first.Winners); err == nil {
				t.Fatalf("solver %v: the oracle accepted a NaN at vertex %d", solver, v)
			}
			next := randomWeights(k, int64(v)+3)
			got, err := dec.Decide(next, first.Winners)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rt.NewDecider().Decide(next, first.Winners)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("solver %v: decide after a NaN at vertex %d diverged from a fresh decider's:\n got %+v\nwant %+v",
					solver, v, got, want)
			}
		}
	}
}

// TestDeciderStatsDelta checks the Sub helper used by periodic publishers.
func TestDeciderStatsDelta(t *testing.T) {
	ext := buildExt(t, 10, 2, 5)
	rt, err := New(Config{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	w := randomWeights(ext.K(), 4)
	res, err := dec.Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := dec.Stats()
	if _, err := dec.Decide(w, res.Winners); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decide(w, res.Winners); err != nil { // epoch skip
		t.Fatal(err)
	}
	delta := dec.Stats().Sub(before)
	if delta.FullDecides != 1 || delta.EpochSkips != 1 || delta.Decisions() != 2 {
		t.Fatalf("delta %+v, want 1 full decide + 1 epoch skip", delta)
	}
	if delta.MiniRounds <= 0 || delta.MiniTimeslots <= 0 {
		t.Fatalf("delta %+v lost the communication totals", delta)
	}
}

// budgetStopSolver returns solver's set, and also re-solves each instance
// through mwis.Exact at the solver's budget, counting the searches that
// stop there: the oracle's count of budget stops.
type budgetStopSolver struct {
	solver mwis.Solver
	budget int
	stops  int64
}

func (s *budgetStopSolver) Solve(in mwis.Instance) ([]int, error) {
	if _, err := (mwis.Exact{Budget: s.budget}).Solve(in); errors.Is(err, mwis.ErrBudgetExceeded) {
		s.stops++
	}
	return s.solver.Solve(in)
}

func (s *budgetStopSolver) Name() string { return s.solver.Name() }

// TestDeciderCountsBudgetStops pins DecideStats.BudgetStops at the paper's
// Fig. 6 size (100×5, target degree 6, r=2, D=4, seed 5): one decide under
// all-2.0 weights, zhou-li's warm-up, whose local searches are the
// hardest, and one under continuous weights. It runs the default Hybrid,
// which reports stops through the workspace, and mwis.Exact at the same
// budget, which reports them as ErrBudgetExceeded, and both again at a
// budget of 1,000 nodes. A fresh Decider solves every leader it elects, so
// each decide's count must equal the oracle's, which runs referenceDecide
// through budgetStopSolver, and the decide itself must equal the oracle's.
// At the default budget the all-2.0 searches now finish: past its first
// 8,192 nodes the local search bounds by a clique cover of each node's
// remaining set, and before it did, 2 of the 15 leaders' stopped. At
// 1,000 nodes, below that switch, the all-2.0 counts must be nonzero.
func TestDeciderCountsBudgetStops(t *testing.T) {
	nw, err := topology.Random(topology.RandomConfig{N: 100, TargetDegree: 6}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	regimes := []struct {
		name string
		w    []float64
	}{{"all 2.0", make([]float64, ext.K())}, {"continuous", make([]float64, ext.K())}}
	for i := range regimes[0].w {
		regimes[0].w[i] = 2.0
		regimes[1].w[i] = src.Float64()
	}
	for _, c := range []struct {
		solver   mwis.Solver
		budget   int
		mustStop bool // under all-2.0 weights
	}{
		{mwis.Hybrid{}, 50000, false}, {mwis.Exact{Budget: 50000}, 50000, false},
		{mwis.Hybrid{Budget: 1000}, 1000, true}, {mwis.Exact{Budget: 1000}, 1000, true},
	} {
		solver := c.solver
		rt, err := New(Config{Ext: ext, R: 2, D: 4, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &budgetStopSolver{solver: solver, budget: c.budget}
		ort, err := New(Config{Ext: ext, R: 2, D: 4, Solver: oracle})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceRuntime(ort)
		for _, reg := range regimes {
			desc := fmt.Sprintf("%s at %d nodes, %s", solver.Name(), c.budget, reg.name)
			oracle.stops = 0
			want, wantMessages, err := referenceDecide(ref, reg.w, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec := rt.NewDecider()
			got, err := dec.Decide(reg.w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesReference(want, wantMessages, got) {
				t.Fatalf("%s: decider diverged from the reference:\n got %+v\nwant %+v", desc, got, want)
			}
			if stops := dec.Stats().BudgetStops; stops != oracle.stops {
				t.Errorf("%s: %d budget stops, oracle %d", desc, stops, oracle.stops)
			}
			if c.mustStop && reg.name == "all 2.0" && oracle.stops == 0 {
				t.Errorf("%s: no budget stop", desc)
			}
		}
	}
}

// BenchmarkDeciderServeShape is BenchmarkDecideServeShape on the
// incremental path with epoch-breaking weights (the serving runtime's
// worst case: every decision is a full decide).
func BenchmarkDeciderServeShape(b *testing.B) {
	ext := buildExtB(b, 10, 2, 1)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	dec := rt.NewDecider()
	weights := make([]float64, ext.K())
	src := rng.New(2)
	for i := range weights {
		weights[i] = src.Float64()
	}
	res, err := dec.Decide(weights, nil)
	if err != nil {
		b.Fatal(err)
	}
	prev := res.Winners
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weights[i%len(weights)] += 1e-9 // break the epoch: force a full decide
		if _, err := dec.Decide(weights, prev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeciderEpochSkip measures the short-circuit itself.
func BenchmarkDeciderEpochSkip(b *testing.B) {
	ext := buildExtB(b, 10, 2, 1)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	dec := rt.NewDecider()
	weights := make([]float64, ext.K())
	src := rng.New(2)
	for i := range weights {
		weights[i] = src.Float64()
	}
	res, err := dec.Decide(weights, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dec.Decide(weights, res.Winners); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decide(weights, res.Winners); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeciderMemoStructHits pins the structure layer: moving a single
// weight far past any slack certificate breaks the split replay but usually
// keeps candidate sets, so repeated decisions reuse the cached subgraph
// structure (struct hits) while staying bit-identical to the reference
// (covered by the randomized suite; here we assert the accounting).
func TestDeciderMemoStructHits(t *testing.T) {
	ext := buildExt(t, 20, 2, 7)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	w := append([]float64(nil), randomWeights(ext.K(), 9)...)
	var prev []int
	for i := 0; i < 8; i++ {
		res, err := dec.Decide(w, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = res.Winners
		w = append([]float64(nil), w...)
		w[i%len(w)] *= 0.5 // move one weight past slack: same structure, new instance
	}
	st := dec.Stats()
	if st.MemoStructHits == 0 {
		t.Fatalf("no structure hits across weight-drifted decisions (stats %+v)", st)
	}
	if st.MemoHitRate() <= 0 {
		t.Fatalf("memo hit rate %v, want > 0 (stats %+v)", st.MemoHitRate(), st)
	}
}

// TestDeciderMemoFullHitNonHybridSolver pins the leader-skip tier that
// absorbed the old full-hit memo level: identical (candidates, weights)
// instances must replay their split without a solve even when the runtime's
// solver is plain Greedy — exact-equality replays are valid for any
// deterministic solver (regression: the full-hit gate once required the
// hybrid-only structure preparation, making hits impossible here). A third
// decide drifts every weight by a relative 1e-9: Greedy reports no slack
// certificate, so no leader may skip, but every solver runs on the
// leader's prepared ball, so leaders whose candidate set repeats must
// count structure hits, and the decide must still equal the reference's.
func TestDeciderMemoFullHitNonHybridSolver(t *testing.T) {
	ext := buildExt(t, 20, 2, 7)
	rt, err := New(Config{Ext: ext, R: 2, D: 0, Solver: mwis.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	w := randomWeights(ext.K(), 9)
	first, err := dec.Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same weights, different prevPlayed: the epoch cache cannot fire, so
	// every leader's identical instance must come out of the memo.
	if _, err := dec.Decide(w, first.Winners); err != nil {
		t.Fatal(err)
	}
	st := dec.Stats()
	if st.LeaderSkips == 0 {
		t.Fatalf("no leader skips with a non-hybrid solver (stats %+v)", st)
	}
	if st.MemoStructHits != 0 {
		t.Fatalf("structure hits recorded under unchanged weights (stats %+v)", st)
	}
	if st.SensitivitySkips != 0 {
		t.Fatalf("sensitivity skips recorded without a slack certificate (stats %+v)", st)
	}

	drifted := make([]float64, len(w))
	for i, x := range w {
		drifted[i] = x * (1 + 1e-9)
	}
	want, wantMessages, err := referenceDecide(newReferenceRuntime(rt), drifted, first.Winners)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decide(drifted, first.Winners)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesReference(want, wantMessages, got) {
		t.Fatalf("drifted decide diverged from the reference:\n got %+v\nwant %+v", got, want)
	}
	delta := dec.Stats().Sub(st)
	if delta.MemoStructHits == 0 || delta.LeaderSkips != 0 || delta.SensitivitySkips != 0 {
		t.Fatalf("drifted decide: %d structure hits, %d misses, %d leader and %d sensitivity skips; want structure hits and no skip",
			delta.MemoStructHits, delta.MemoMisses, delta.LeaderSkips, delta.SensitivitySkips)
	}
}

// TestDeciderTracing pins the decision-path tracer contract: a traced
// decider produces bit-identical Results to an untraced one on the same
// sequence, emits exactly one trace per decision, classifies epoch skips,
// reports memo deltas that sum to the cumulative stats, and fills phase
// timers whose sum never exceeds the decide's total wall time.
func TestDeciderTracing(t *testing.T) {
	ext := buildExt(t, 18, 2, 11)
	rt, err := New(Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	plain := rt.NewDecider()
	traced := rt.NewDecider()
	var traces []DecideTrace
	traced.SetTracer(func(tr *DecideTrace) { traces = append(traces, *tr) })

	w := randomWeights(ext.K(), 13)
	var prevP, prevT []int
	for step := 0; step < 8; step++ {
		if step%3 == 2 {
			w = append([]float64(nil), w...)
			w[step%ext.K()] = 1 - w[step%ext.K()]
		}
		want, err := plain.Decide(w, prevP)
		if err != nil {
			t.Fatal(err)
		}
		got, err := traced.Decide(w, prevT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("step %d: tracing changed the result:\n got %+v\nwant %+v", step, got, want)
		}
		prevP, prevT = want.Winners, got.Winners
	}

	st := traced.Stats()
	if int64(len(traces)) != st.Decisions() {
		t.Fatalf("%d traces for %d decisions", len(traces), st.Decisions())
	}
	var skips int64
	var leaderSkips, sensSkips, structHits, misses int64
	for i, tr := range traces {
		if tr.EpochSkip {
			skips++
			if tr.PhaseNS() != 0 || tr.MiniRounds != 0 {
				t.Fatalf("trace %d: epoch skip carries phase work: %+v", i, tr)
			}
			continue
		}
		if tr.MiniRounds <= 0 {
			t.Fatalf("trace %d: full decide with %d mini-rounds", i, tr.MiniRounds)
		}
		if tr.PhaseNS() <= 0 || tr.PhaseNS() > tr.TotalNS {
			t.Fatalf("trace %d: phase sum %d outside (0, total=%d]", i, tr.PhaseNS(), tr.TotalNS)
		}
		if tr.StartUnixNS <= 0 {
			t.Fatalf("trace %d: missing start timestamp", i)
		}
		leaderSkips += tr.LeaderSkips
		sensSkips += tr.SensitivitySkips
		structHits += tr.MemoStructHits
		misses += tr.MemoMisses
	}
	if skips != st.EpochSkips {
		t.Fatalf("%d epoch-skip traces, stats say %d", skips, st.EpochSkips)
	}
	if leaderSkips != st.LeaderSkips || sensSkips != st.SensitivitySkips ||
		structHits != st.MemoStructHits || misses != st.MemoMisses {
		t.Fatalf("trace lookup deltas (%d,%d,%d,%d) do not sum to stats (%d,%d,%d,%d)",
			leaderSkips, sensSkips, structHits, misses,
			st.LeaderSkips, st.SensitivitySkips, st.MemoStructHits, st.MemoMisses)
	}

	// Detaching the tracer stops emission.
	traced.SetTracer(nil)
	n := len(traces)
	if _, err := traced.Decide(w, prevT); err != nil {
		t.Fatal(err)
	}
	if len(traces) != n {
		t.Fatal("detached tracer still received a trace")
	}
}

// TestDeciderSensitivitySkipEquivalence drives the drift regime the
// sensitivity margin exists for: weights that move every boundary but by an
// L1 distance far below any comparison margin. The decider must replay
// cached leader splits (SensitivitySkips > 0, leader re-solves collapse)
// while staying bit-identical to the from-scratch reference on every
// boundary.
func TestDeciderSensitivitySkipEquivalence(t *testing.T) {
	ext := buildExt(t, 22, 2, 17)
	rt, err := New(Config{Ext: ext, R: 2, D: 0}) // default Hybrid: certified path
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	src := rng.New(99)
	k := ext.K()
	w := make([]float64, k)
	for i := range w {
		w[i] = src.Float64()
	}
	var seq [][]float64
	for step := 0; step < 10; step++ {
		next := append([]float64(nil), w...)
		for j := 0; j < 1+src.Intn(5); j++ {
			next[src.Intn(k)] += (src.Float64() - 0.5) * 1e-12
		}
		w = next
		seq = append(seq, w)
	}
	decideSequence(t, rt, dec, seq)
	st := dec.Stats()
	if st.SensitivitySkips == 0 {
		t.Fatalf("no sensitivity skips under sub-slack drift (stats %+v)", st)
	}
	if st.EpochSkips != 0 {
		t.Fatalf("drifting weights must break the epoch cache (stats %+v)", st)
	}
}

// TestDeciderChangeSetEquivalence drives DecideEpoch with an exact caller
// change set (what the slot kernel passes) through drift, repeat and redraw
// regimes, asserting bit-identical Results against the stateless reference
// and that leader and sensitivity skips occurred. The decider ignores the
// set; both skips come from its own comparison with the anchor weights
// (TestDeciderIgnoresCallerHints holds it to that).
func TestDeciderChangeSetEquivalence(t *testing.T) {
	ext := buildExt(t, 20, 2, 23)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	src := rng.New(7)
	k := ext.K()
	w := make([]float64, k)
	for i := range w {
		w[i] = src.Float64()
	}
	last := make([]float64, k)
	ch := changeset.New(k)
	ref := newReferenceRuntime(rt)
	var prevRef, prevInc []int
	for step := 0; step < 14; step++ {
		switch step % 4 {
		case 1: // drift a few
			w = append([]float64(nil), w...)
			for j := 0; j < 1+src.Intn(3); j++ {
				w[src.Intn(k)] = src.Float64()
			}
		case 2: // repeat exactly
		default: // tiny drift
			w = append([]float64(nil), w...)
			for j := 0; j < 1+src.Intn(3); j++ {
				w[src.Intn(k)] += (src.Float64() - 0.5) * 1e-12
			}
		}
		ch.Reset(k)
		unchanged := true
		for i := range w {
			if w[i] != last[i] {
				ch.Add(i)
				unchanged = false
			}
		}
		copy(last, w)
		want, wantMessages, err := referenceDecide(ref, w, prevRef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecideEpoch(w, prevInc, unchanged && step > 0, ch)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesReference(want, wantMessages, got) {
			t.Fatalf("step %d: change-set decision diverged:\n got %+v\nwant %+v", step, got, want)
		}
		prevRef, prevInc = want.Winners, got.Winners
	}
	st := dec.Stats()
	if st.LeaderSkips == 0 || st.SensitivitySkips == 0 {
		t.Fatalf("change-set plane produced no skips (stats %+v)", st)
	}
}

// TestDeciderIgnoresCallerHints holds DecideEpoch to the reference when its
// change hints are wrong: the decider must decide every epoch skip and
// leader replay from the weights themselves. Two cases, on a 20×2 network
// (r=2, D=0):
//
//   - after deciding w twice, DecideEpoch(w2, prev, true, empty set) with
//     w2 ≠ w, a caller that asserts nothing moved;
//   - for every vertex but the heaviest, a fresh decider decides w, then
//     DecideEpoch with that vertex lifted to 0.999× the maximum weight,
//     weightsUnchanged false and an empty change set, a caller that
//     under-reports the one change.
//
// A decider that trusted the hints would return the earlier Result in the
// first case, and replay a lifted leader's stale split in the second.
func TestDeciderIgnoresCallerHints(t *testing.T) {
	ext := buildExt(t, 20, 2, 23)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	ref := newReferenceRuntime(rt)
	k := ext.K()
	src := rng.New(7)
	w := make([]float64, k)
	for i := range w {
		w[i] = src.Float64()
	}
	empty := changeset.New(k)
	check := func(desc string, dec *Decider, w2 []float64, prev []int, unchanged bool) {
		t.Helper()
		want, wantMessages, err := referenceDecide(ref, w2, prev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.DecideEpoch(w2, prev, unchanged, empty)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesReference(want, wantMessages, got) {
			t.Errorf("%s: decision diverged from the reference:\n got %v\nwant %v", desc, got.Winners, want.Winners)
		}
	}

	dec := rt.NewDecider()
	first, err := dec.Decide(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decide(w, first.Winners); err != nil {
		t.Fatal(err)
	}
	w2 := make([]float64, k)
	for i := range w2 {
		w2[i] = 1 - w[i]
	}
	check("weights asserted unchanged", dec, w2, first.Winners, true)

	top := 0
	for v := range w {
		if w[v] > w[top] {
			top = v
		}
	}
	for v := range w {
		if v == top {
			continue
		}
		dec := rt.NewDecider()
		first, err := dec.Decide(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		lifted := slices.Clone(w)
		lifted[v] = 0.999 * w[top]
		check(fmt.Sprintf("vertex %d lifted, change set empty", v), dec, lifted, first.Winners, false)
	}
}

// TestDeciderTiedWeightsDrift pins the tie rule end to end: anchors solved
// under fully tied weights carry a zero slack certificate, so the first
// drifted boundary may not sensitivity-skip any tied anchor — it must
// re-resolve (or replay only provably untouched leaders) and still match
// the reference exactly, because a tie-resolved comparison can flip under
// arbitrarily small drift.
func TestDeciderTiedWeightsDrift(t *testing.T) {
	ext := buildExt(t, 18, 2, 29)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.NewDecider()
	k := ext.K()
	w := make([]float64, k)
	for i := range w {
		w[i] = 0.5
	}
	seq := [][]float64{append([]float64(nil), w...)}
	drifted := append([]float64(nil), w...)
	src := rng.New(41)
	for j := 0; j < 5; j++ {
		drifted[src.Intn(k)] += (src.Float64() - 0.5) * 1e-12
	}
	seq = append(seq, drifted)
	decideSequence(t, rt, dec, seq)
	if st := dec.Stats(); st.SensitivitySkips != 0 {
		t.Fatalf("tied anchors (zero slack) sensitivity-skipped (stats %+v)", st)
	}
}

// TestDeciderSharedArena locks the batched cross-instance path: deciders
// sharing one DecideArena produce bit-identical Results to unshared ones on
// interleaved trajectories, and skip accounting is unaffected — the arena
// holds only history-free scratch.
func TestDeciderSharedArena(t *testing.T) {
	ext := buildExt(t, 20, 2, 31)
	rt, err := New(Config{Ext: ext, R: 2, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	arena := NewDecideArena()
	shared := []*Decider{rt.NewDecider(), rt.NewDecider(), rt.NewDecider()}
	plain := []*Decider{rt.NewDecider(), rt.NewDecider(), rt.NewDecider()}
	for _, d := range shared {
		d.SetArena(arena)
	}
	k := ext.K()
	prevS := make([][]int, len(shared))
	prevP := make([][]int, len(plain))
	for step := 0; step < 6; step++ {
		for li := range shared {
			w := randomWeights(k, int64(step*7+li))
			want, err := plain[li].Decide(w, prevP[li])
			if err != nil {
				t.Fatal(err)
			}
			got, err := shared[li].Decide(w, prevS[li])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("step %d loop %d: shared-arena result diverged", step, li)
			}
			prevP[li], prevS[li] = want.Winners, got.Winners
		}
	}
	for li := range shared {
		if s, p := shared[li].Stats(), plain[li].Stats(); s != p {
			t.Fatalf("loop %d: shared-arena stats %+v != unshared %+v", li, s, p)
		}
	}
}
