package mwis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// bruteForce finds the exact MWIS weight by trying all 2^n subsets.
func bruteForce(in Instance) float64 {
	n := in.G.N()
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if !in.G.IsIndependent(set) {
			continue
		}
		if w := in.Weight(set); w > best {
			best = w
		}
	}
	return best
}

func randomInstance(n int, p float64, src *rng.Source) Instance {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if src.Float64() < p {
				_ = g.AddEdge(i, j)
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = src.Float64()
	}
	return Instance{G: g, W: w}
}

func pathInstance(t *testing.T, weights []float64) Instance {
	t.Helper()
	g := graph.New(len(weights))
	for i := 0; i+1 < len(weights); i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return Instance{G: g, W: weights}
}

func TestValidate(t *testing.T) {
	if err := (Instance{}).Validate(); err == nil {
		t.Fatal("expected error for nil graph")
	}
	g := graph.New(2)
	if err := (Instance{G: g, W: []float64{1}}).Validate(); err == nil {
		t.Fatal("expected error for weight length mismatch")
	}
	if err := (Instance{G: g, W: []float64{1, -1}}).Validate(); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if err := (Instance{G: g, W: []float64{math.NaN(), 1}}).Validate(); err == nil {
		t.Fatal("expected error for NaN weight")
	}
	if err := (Instance{G: g, W: []float64{1, 2}}).Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestWeight(t *testing.T) {
	in := Instance{G: graph.New(3), W: []float64{1, 2, 4}}
	if got := in.Weight([]int{0, 2}); got != 5 {
		t.Fatalf("Weight = %v, want 5", got)
	}
	if got := in.Weight(nil); got != 0 {
		t.Fatalf("Weight(nil) = %v", got)
	}
}

func TestExactPathAlternating(t *testing.T) {
	// Path with equal weights: MWIS picks alternating vertices.
	in := pathInstance(t, []float64{1, 1, 1, 1, 1})
	set, err := (Exact{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Weight(set); got != 3 {
		t.Fatalf("path MWIS weight = %v, want 3 (set %v)", got, set)
	}
}

func TestExactPreferHeavyMiddle(t *testing.T) {
	// Middle vertex outweighs both neighbors combined.
	in := pathInstance(t, []float64{1, 5, 1})
	set, err := (Exact{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != 1 {
		t.Fatalf("set = %v, want [1]", set)
	}
}

func TestExactLeaderNotInMWIS(t *testing.T) {
	// The heaviest vertex is NOT always in the optimum: star with hub 10
	// and three leaves of 4 each (leaves are pairwise independent).
	g := graph.New(4)
	for leaf := 1; leaf < 4; leaf++ {
		_ = g.AddEdge(0, leaf)
	}
	in := Instance{G: g, W: []float64{10, 4, 4, 4}}
	set, err := (Exact{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Weight(set); got != 12 {
		t.Fatalf("weight = %v, want 12 (set %v)", got, set)
	}
}

// TestExactEmptyGraph also pins Solve's result shape: an empty optimum is
// an empty slice, not nil, on an empty graph and under all-zero weights.
func TestExactEmptyGraph(t *testing.T) {
	for _, in := range []Instance{
		{G: graph.New(0)},
		{G: graph.New(3), W: []float64{0, 0, 0}},
	} {
		set, err := (Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if set == nil || len(set) != 0 {
			t.Fatalf("n=%d: set = %#v, want an empty non-nil slice", in.G.N(), set)
		}
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := rng.New(seed)
		in := randomInstance(12, 0.3, src)
		set, err := (Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(in.G, set) {
			t.Fatalf("seed %d: Exact returned dependent set %v", seed, set)
		}
		want := bruteForce(in)
		if got := in.Weight(set); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: Exact weight %v, brute force %v", seed, got, want)
		}
	}
}

func TestExactMaxNodesGuard(t *testing.T) {
	in := randomInstance(20, 0.2, rng.New(1))
	if _, err := (Exact{MaxNodes: 10}).Solve(in); err == nil {
		t.Fatal("expected MaxNodes rejection")
	}
}

func TestExactBudgetReturnsIncumbent(t *testing.T) {
	in := randomInstance(30, 0.15, rng.New(2))
	set, err := (Exact{Budget: 3}).Solve(in)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !Verify(in.G, set) {
		t.Fatalf("incumbent %v is not independent", set)
	}
}

func TestGreedyIsIndependent(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(30, 0.2, rng.New(seed))
		set, err := (Greedy{}).Solve(in)
		if err != nil {
			return false
		}
		return Verify(in.G, set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyIsMaximal(t *testing.T) {
	// Greedy output cannot be extended: every vertex outside the set has a
	// neighbor inside (or is in the set).
	in := randomInstance(25, 0.2, rng.New(4))
	set, err := (Greedy{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	inSet := map[int]bool{}
	for _, v := range set {
		inSet[v] = true
	}
	for v := 0; v < in.G.N(); v++ {
		if inSet[v] {
			continue
		}
		blocked := false
		for _, u := range in.G.Neighbors(v) {
			if inSet[u] {
				blocked = true
				break
			}
		}
		if !blocked {
			t.Fatalf("vertex %d could extend the greedy set", v)
		}
	}
}

func TestGreedyPicksHeaviestFirst(t *testing.T) {
	in := pathInstance(t, []float64{1, 5, 1})
	set, err := (Greedy{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != 1 {
		t.Fatalf("set = %v, want [1]", set)
	}
}

func TestHybridMatchesExactWhenSmall(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := randomInstance(14, 0.25, rng.New(seed))
		hSet, err := (Hybrid{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		eSet, err := (Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(in.Weight(hSet)-in.Weight(eSet)) > 1e-9 {
			t.Fatalf("seed %d: hybrid %v < exact %v", seed, in.Weight(hSet), in.Weight(eSet))
		}
	}
}

func TestHybridFallsBackToGreedyOnLargeInstances(t *testing.T) {
	in := randomInstance(60, 0.1, rng.New(3))
	set, err := (Hybrid{MaxExactNodes: 10}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in.G, set) {
		t.Fatal("fallback set not independent")
	}
	gSet, _ := (Greedy{}).Solve(in)
	if in.Weight(set) < in.Weight(gSet)-1e-9 {
		t.Fatal("hybrid must never be worse than greedy")
	}
}

func TestHybridNeverWorseThanGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(18, 0.25, rng.New(seed))
		hSet, err := (Hybrid{Budget: 50}).Solve(in)
		if err != nil {
			return false
		}
		gSet, err := (Greedy{}).Solve(in)
		if err != nil {
			return false
		}
		return in.Weight(hSet) >= in.Weight(gSet)-1e-9 && Verify(in.G, hSet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// unitDiskInstance builds an MWIS instance over a random unit-disk graph,
// the graph class the robust PTAS guarantees apply to.
func unitDiskInstance(t *testing.T, n int, seed int64) Instance {
	t.Helper()
	nw, err := topology.Random(topology.RandomConfig{N: n}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 1000)
	w := make([]float64, n)
	for i := range w {
		w[i] = src.Float64()
	}
	return Instance{G: nw.G, W: w}
}

func TestRobustPTASIsIndependent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := unitDiskInstance(t, 50, seed)
		set, err := (RobustPTAS{Rho: 1.5}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(in.G, set) {
			t.Fatalf("seed %d: PTAS output not independent", seed)
		}
	}
}

func TestRobustPTASApproxRatioUnitDisk(t *testing.T) {
	// On small unit-disk instances, compare against the exact optimum.
	// The theoretical guarantee on the committed weight is ρ per ball;
	// verify the global ratio never exceeds ρ (with slack for the
	// empty-removal edge cases it should hold exactly).
	const rho = 1.5
	for seed := int64(0); seed < 25; seed++ {
		in := unitDiskInstance(t, 30, seed)
		ptasSet, err := (RobustPTAS{Rho: rho}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		exactSet, err := (Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := in.Weight(exactSet)
		got := in.Weight(ptasSet)
		if got < opt/rho-1e-9 {
			t.Fatalf("seed %d: PTAS weight %v below OPT/ρ = %v (OPT %v)",
				seed, got, opt/rho, opt)
		}
	}
}

func TestRobustPTASApproxRatioExtendedGraph(t *testing.T) {
	// Theorem 2: the PTAS applies to the extended conflict graph H.
	const rho = 2.0
	for seed := int64(0); seed < 10; seed++ {
		nw, err := topology.Random(topology.RandomConfig{N: 10}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ext, err := extgraph.Build(nw.G, 3)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed + 77)
		w := make([]float64, ext.K())
		for i := range w {
			w[i] = src.Float64()
		}
		in := Instance{G: ext.H, W: w}
		ptasSet, err := (RobustPTAS{Rho: rho}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(in.G, ptasSet) {
			t.Fatal("PTAS output on H not independent")
		}
		exactSet, err := (Exact{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := in.Weight(exactSet)
		if got := in.Weight(ptasSet); got < opt/rho-1e-9 {
			t.Fatalf("seed %d: ratio %v worse than ρ=%v", seed, opt/got, rho)
		}
	}
}

func TestRobustPTASTightRhoApproachesOptimum(t *testing.T) {
	// Smaller ε (ρ→1) must not hurt: with ρ=1.05 results should be at
	// least as good as with ρ=3 on average.
	var tight, loose float64
	for seed := int64(0); seed < 15; seed++ {
		in := unitDiskInstance(t, 40, seed)
		tightSet, err := (RobustPTAS{Rho: 1.05}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		looseSet, err := (RobustPTAS{Rho: 3}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		tight += in.Weight(tightSet)
		loose += in.Weight(looseSet)
	}
	if tight < loose-1e-9 {
		t.Fatalf("tight ρ total %v worse than loose ρ total %v", tight, loose)
	}
}

func TestRobustPTASInvalidRho(t *testing.T) {
	in := unitDiskInstance(t, 5, 1)
	if _, err := (RobustPTAS{Rho: 0.9}).Solve(in); err == nil {
		t.Fatal("expected error for Rho <= 1")
	}
}

func TestRobustPTASZeroWeights(t *testing.T) {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	in := Instance{G: g, W: []float64{0, 0, 0}}
	set, err := (RobustPTAS{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 0 {
		t.Fatalf("zero-weight instance returned %v", set)
	}
}

func TestSolverNames(t *testing.T) {
	tests := []struct {
		s    Solver
		want string
	}{
		{Exact{}, "exact"},
		{Greedy{}, "greedy"},
		{Hybrid{}, "hybrid"},
		{RobustPTAS{}, "robust-ptas"},
	}
	for _, tt := range tests {
		if got := tt.s.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestCliquePartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(20, 0.3, rng.New(seed))
		clique := greedyCliquePartition(in.G, new(Workspace))
		// Group members and check pairwise adjacency within each clique.
		groups := map[int][]int{}
		for v, c := range clique {
			if c < 0 {
				return false
			}
			groups[c] = append(groups[c], v)
		}
		for _, members := range groups {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					if !in.G.HasEdge(members[i], members[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpperBoundSound(t *testing.T) {
	// The clique-partition bound must never be below the true optimum.
	for seed := int64(0); seed < 20; seed++ {
		in := randomInstance(12, 0.3, rng.New(seed))
		var p Prepared
		var ws Workspace
		p.Prepare(in.G, &ws)
		ws.exact(&p, in.W, 0, false)
		// With every rank remaining, a rank heads its clique iff it is the
		// clique's lowest.
		st, n := &ws.st, in.G.N()
		heads := newBitset(n)
		for r := 0; r < n; r++ {
			if bitset(st.cmask[r*st.words:(r+1)*st.words]).next(0) == r {
				heads.set(r)
			}
		}
		if ub := st.upperBound(heads); ub < bruteForce(in)-1e-9 {
			t.Fatalf("seed %d: upper bound %v below optimum %v", seed, ub, bruteForce(in))
		}
	}
}

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// bitsOf lists b's set bits in ascending order.
func bitsOf(b bitset) []int {
	var out []int
	b.forEach(func(i int) { out = append(out, i) })
	return out
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if got := bitsOf(b); !equalIntSlices(got, []int{0, 64, 129}) {
		t.Fatalf("set/forEach = %v", got)
	}
	for _, tc := range []struct{ from, want int }{
		{0, 0}, {1, 64}, {63, 64}, {64, 64}, {65, 129}, {129, 129}, {130, -1},
	} {
		if got := b.next(tc.from); got != tc.want {
			t.Fatalf("next(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
	b.clear(64)
	if got := bitsOf(b); !equalIntSlices(got, []int{0, 129}) {
		t.Fatalf("after clear: %v", got)
	}
	if got := b.next(1); got != 129 {
		t.Fatalf("next(1) across an empty word = %d, want 129", got)
	}
	if got := newBitset(10).next(0); got != -1 {
		t.Fatalf("next on a fresh bitset = %d, want -1", got)
	}
	mask := newBitset(130)
	mask.set(0)
	mask.set(129)
	for _, tc := range []struct{ wi, want int }{{0, 0}, {1, 129}, {2, 129}, {3, -1}} {
		if got := b.nextAnd(mask, tc.wi); got != tc.want {
			t.Fatalf("nextAnd from word %d = %d, want %d", tc.wi, got, tc.want)
		}
	}
}

func TestBitsetAndNotInto(t *testing.T) {
	a := newBitset(70)
	a.set(1)
	a.set(65)
	mask := newBitset(70)
	mask.set(65)
	dst := newBitset(70)
	a.andNotInto(mask, dst)
	if got := bitsOf(dst); !equalIntSlices(got, []int{1}) {
		t.Fatalf("andNotInto wrong: %v", got)
	}
}
