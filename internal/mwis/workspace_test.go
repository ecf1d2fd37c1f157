package mwis

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
)

// workspaceSolver is a solver with a workspace body: Greedy, Exact and
// Hybrid.
type workspaceSolver interface {
	Solver
	SolveWorkspace(in Instance, ws *Workspace) ([]int, error)
}

// tieRegimes names the exact-tie weight regimes the solver equality suites
// run next to continuous weights.
var tieRegimes = []string{"all 2.0", "quarter steps", "zeros and halves"}

// tieWeight draws one weight of tie regime regime: 2.0 (every arm at the
// unseen-arm index), k/4 for k in 0..8, or 0 and 0.5 in equal parts. Near
// ties within an ulp are left to TestRankSearchMatchesReference: there the
// reference Hybrid body is documented to diverge
// (TestHybridKeepsExhaustiveSetOnRoundingTie).
func tieWeight(regime int, src *rng.Source) float64 {
	switch regime {
	case 0:
		return 2.0
	case 1:
		return float64(src.Intn(9)) / 4
	default:
		return float64(src.Intn(2)) / 2
	}
}

// TestSolveWorkspaceMatchesSolve is the workspace path's bit-identity
// guard: for every solver, SolveWorkspace on a shared reused workspace and
// the pooled Solve must return exactly what the reference returns — same
// set, same error class — across random instances of varying size and
// density, including budgeted exact searches that exhaust their budget,
// under continuous weights and under each exact-tie regime. Instances of
// 4–27 vertices run the one-word search body, sparse ones of 65–100 the
// multi-word body. The references are the allocating Greedy and Hybrid
// bodies (reference_test.go); Exact has only its workspace body, which
// TestRankSearchMatchesReference pins, so its pooled Solve is its
// reference here.
func TestSolveWorkspaceMatchesSolve(t *testing.T) {
	hybrid := func(h Hybrid) func(Instance) ([]int, error) {
		return func(in Instance) ([]int, error) { return referenceHybridSolve(h, in) }
	}
	type solverCase struct {
		s   workspaceSolver
		ref func(Instance) ([]int, error)
	}
	solvers := []solverCase{
		{Greedy{}, referenceGreedySolve},
		{Exact{}, Exact{}.Solve},
		{Exact{Budget: 8}, Exact{Budget: 8}.Solve}, // forces ErrBudgetExceeded incumbents
		{Hybrid{}, hybrid(Hybrid{})},
		{Hybrid{Budget: 8}, hybrid(Hybrid{Budget: 8})},
		{Hybrid{MaxExactNodes: 10}, hybrid(Hybrid{MaxExactNodes: 10})}, // forces the greedy-only branch
	}
	// Over 65–100 vertices an unbudgeted search can run for minutes, so the
	// wide trials run it under the decider's budget.
	wide := slices.Clone(solvers)
	wide[1] = solverCase{Exact{Budget: 50000}, Exact{Budget: 50000}.Solve}
	var ws Workspace
	check := func(desc string, in Instance) {
		list := solvers
		if in.G.N() > 64 {
			list = wide
		}
		for _, c := range list {
			s := c.s
			want, wantErr := c.ref(in)
			got, gotErr := s.SolveWorkspace(in, &ws)
			pooled, pooledErr := s.Solve(in)
			for _, r := range []struct {
				path string
				set  []int
				err  error
			}{{"workspace", got, gotErr}, {"solve", pooled, pooledErr}} {
				if (wantErr == nil) != (r.err == nil) ||
					errors.Is(wantErr, ErrBudgetExceeded) != errors.Is(r.err, ErrBudgetExceeded) {
					t.Fatalf("%s %s: error %v (%s) vs %v (reference)", desc, s.Name(), r.err, r.path, wantErr)
				}
				if !equalIntSlices(r.set, want) {
					t.Fatalf("%s %s: %v (%s) vs %v (reference)", desc, s.Name(), r.set, r.path, want)
				}
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		src := rng.New(seed)
		n := 4 + src.Intn(24)
		check(fmt.Sprintf("seed %d", seed), randomInstance(n, 0.1+0.3*src.Float64(), src))
	}
	for seed := int64(0); seed < 200; seed++ {
		for regime, name := range tieRegimes {
			src := rng.New(seed + 1000)
			n := 4 + src.Intn(24)
			in := randomInstance(n, 0.1+0.3*src.Float64(), src)
			for i := range in.W {
				in.W[i] = tieWeight(regime, src)
			}
			check(fmt.Sprintf("seed %d %s", seed, name), in)
		}
	}
	// 65–100 vertices at sparse densities, for the multi-word search body.
	for seed := int64(0); seed < 10; seed++ {
		src := rng.New(seed + 3000)
		n := 65 + src.Intn(36)
		in := randomInstance(n, 0.02+0.04*src.Float64(), src)
		check(fmt.Sprintf("seed %d wide", seed), in)
		for regime, name := range tieRegimes {
			for i := range in.W {
				in.W[i] = tieWeight(regime, src)
			}
			check(fmt.Sprintf("seed %d wide %s", seed, name), in)
		}
	}
}

// TestSolveWorkspaceEmptyAndInvalid covers the degenerate paths.
func TestSolveWorkspaceEmptyAndInvalid(t *testing.T) {
	var ws Workspace
	empty := randomInstance(0, 0, rng.New(1))
	for _, s := range []workspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
		set, err := s.SolveWorkspace(empty, &ws)
		if err != nil || len(set) != 0 {
			t.Fatalf("%s on empty instance: set %v, err %v", s.Name(), set, err)
		}
	}
	bad := randomInstance(5, 0.3, rng.New(2))
	bad.W[2] = -1
	for _, s := range []workspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
		if _, err := s.SolveWorkspace(bad, &ws); err == nil {
			t.Fatalf("%s accepted a negative weight", s.Name())
		}
	}
	big := randomInstance(20, 0.2, rng.New(3))
	if _, err := (Exact{MaxNodes: 10}).SolveWorkspace(big, &ws); err == nil {
		t.Fatal("Exact workspace path accepted an oversize instance")
	}
}

// TestSolveWorkspaceNoAllocs asserts a warmed workspace solves without heap
// allocations — the property the protocol decider's hot path relies on — on
// an 18-vertex instance (the one-word search body) and an 80-vertex one
// (the multi-word body), dense enough to solve quickly.
func TestSolveWorkspaceNoAllocs(t *testing.T) {
	for _, in := range []Instance{randomInstance(18, 0.25, rng.New(9)), randomInstance(80, 0.3, rng.New(10))} {
		var ws Workspace
		for _, s := range []workspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
			if _, err := s.SolveWorkspace(in, &ws); err != nil { // warm
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(100, func() {
				if _, err := s.SolveWorkspace(in, &ws); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("%s on %d vertices: warmed workspace solve allocates %.1f times, want 0", s.Name(), in.G.N(), got)
			}
		}
	}
}

// TestSolvePreparedMatchesSolve is the prepared path's bit-identity guard:
// preparing a graph once and solving it under many weight vectors must
// return exactly what the allocating Hybrid body (referenceHybridSolve)
// returns per vector — including budgeted
// searches that fall back to the greedy heuristic and oversize instances
// that skip the exact search entirely — under continuous weights and
// under each exact-tie regime, whose drifts redraw from the regime. As in
// TestSolveWorkspaceMatchesSolve, instances of 4–27 vertices run the
// one-word search body and sparse ones of 65–100 the multi-word body.
func TestSolvePreparedMatchesSolve(t *testing.T) {
	hybrids := []Hybrid{
		{},
		{Budget: 8},
		{MaxExactNodes: 10},
	}
	var ws Workspace
	var pre Prepared
	// run solves one prepared graph under four weight vectors, each drifted
	// from the last by draw.
	run := func(desc string, in Instance, src *rng.Source, draw func() float64) {
		pre.Prepare(in.G, &ws)
		for rounds := 0; rounds < 4; rounds++ {
			for _, h := range hybrids {
				want, wantErr := referenceHybridSolve(h, in)
				got, gotErr := h.SolvePrepared(&pre, in.W, &ws)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: error %v (prepared) vs %v (reference)", desc, gotErr, wantErr)
				}
				if !equalIntSlices(got, want) {
					t.Fatalf("%s: %v (prepared) vs %v (reference)", desc, got, want)
				}
			}
			// Drift the weights and re-solve on the same preparation.
			for j := 0; j < 1+src.Intn(3); j++ {
				in.W[src.Intn(len(in.W))] = draw()
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		src := rng.New(seed + 500)
		n := 4 + src.Intn(24)
		run(fmt.Sprintf("seed %d", seed), randomInstance(n, 0.1+0.3*src.Float64(), src), src, src.Float64)
	}
	for seed := int64(0); seed < 50; seed++ {
		for regime, name := range tieRegimes {
			src := rng.New(seed + 2000)
			n := 4 + src.Intn(24)
			in := randomInstance(n, 0.1+0.3*src.Float64(), src)
			draw := func() float64 { return tieWeight(regime, src) }
			for i := range in.W {
				in.W[i] = draw()
			}
			run(fmt.Sprintf("seed %d %s", seed, name), in, src, draw)
		}
	}
	// 65–100 vertices at sparse densities, for the multi-word search body.
	for seed := int64(0); seed < 10; seed++ {
		src := rng.New(seed + 4000)
		n := 65 + src.Intn(36)
		run(fmt.Sprintf("seed %d wide", seed), randomInstance(n, 0.02+0.04*src.Float64(), src), src, src.Float64)
		for regime, name := range tieRegimes {
			in := randomInstance(n, 0.02+0.04*src.Float64(), src)
			draw := func() float64 { return tieWeight(regime, src) }
			for i := range in.W {
				in.W[i] = draw()
			}
			run(fmt.Sprintf("seed %d wide %s", seed, name), in, src, draw)
		}
	}
}

// TestHybridKeepsExhaustiveSetOnRoundingTie pins the one case where
// Hybrid's body and the allocating body it replaced differ. {0,1,2} and
// {1,3,4} both weigh 22/9, but their float sums differ in the last bit.
// The exact search exhausts and returns {1,3,4}; the allocating body also
// ran Greedy, found {0,1,2}, and returned it for its larger float sum. The
// body keeps the search's set, as the decider always has.
func TestHybridKeepsExhaustiveSetOnRoundingTie(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][2]int{{0, 3}, {2, 3}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	in := Instance{G: g, W: []float64{1.0 / 9, 12.0 / 9, 1, 4.0 / 9, 6.0 / 9}}
	want := []int{1, 3, 4}
	if ref, _ := referenceHybridSolve(Hybrid{}, in); !equalIntSlices(ref, []int{0, 1, 2}) || in.Weight(ref) <= in.Weight(want) {
		t.Fatalf("reference returned %v (weight %.17g), want the greedy set [0 1 2] at a larger float sum than %.17g",
			ref, in.Weight(ref), in.Weight(want))
	}
	var ws Workspace
	var pre Prepared
	pre.Prepare(g, &ws)
	prepared, err := Hybrid{}.SolvePrepared(&pre, in.W, &ws)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := Hybrid{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIntSlices(prepared, want) || !equalIntSlices(solved, want) {
		t.Fatalf("prepared %v, solve %v, want the exhaustive search's %v", prepared, solved, want)
	}
}

// TestSolvePreparedValidation covers the degenerate paths.
func TestSolvePreparedValidation(t *testing.T) {
	var ws Workspace
	var pre Prepared
	in := randomInstance(6, 0.3, rng.New(11))
	pre.Prepare(in.G, &ws)
	if _, err := (Hybrid{}).SolvePrepared(&pre, in.W[:3], &ws); err == nil {
		t.Fatal("short weight vector accepted")
	}
	bad := append([]float64(nil), in.W...)
	bad[2] = -1
	if _, err := (Hybrid{}).SolvePrepared(&pre, bad, &ws); err == nil {
		t.Fatal("negative weight accepted")
	}
	for i := range bad {
		bad[i] = math.NaN()
	}
	if _, err := (Hybrid{}).SolvePrepared(&pre, bad, &ws); err == nil {
		t.Fatal("NaN weights accepted")
	}
	empty := randomInstance(0, 0, rng.New(12))
	pre.Prepare(empty.G, &ws)
	set, err := (Hybrid{}).SolvePrepared(&pre, nil, &ws)
	if err != nil || len(set) != 0 {
		t.Fatalf("empty prepared solve: set %v, err %v", set, err)
	}
}

// TestSolvePreparedBudgetStop pins Workspace.BudgetStop: set by a search
// that stops at its budget, and cleared by the next call whether its
// search completes, no search runs (the greedy path) or the weights are
// rejected.
func TestSolvePreparedBudgetStop(t *testing.T) {
	in := randomInstance(16, 0.3, rng.New(9))
	var ws Workspace
	var pre Prepared
	pre.Prepare(in.G, &ws)
	bad := append([]float64(nil), in.W...)
	bad[0] = -1
	for _, c := range []struct {
		desc      string
		h         Hybrid
		w         []float64
		want, err bool
	}{
		{"budget 1", Hybrid{Budget: 1}, in.W, true, false},
		{"complete search", Hybrid{}, in.W, false, false},
		{"budget 1 again", Hybrid{Budget: 1}, in.W, true, false},
		{"greedy path", Hybrid{MaxExactNodes: 4}, in.W, false, false},
		{"budget 1 once more", Hybrid{Budget: 1}, in.W, true, false},
		{"negative weight", Hybrid{}, bad, false, true},
	} {
		if _, err := c.h.SolvePrepared(&pre, c.w, &ws); (err != nil) != c.err {
			t.Fatalf("%s: error %v", c.desc, err)
		}
		if ws.BudgetStop != c.want {
			t.Fatalf("%s: BudgetStop %v, want %v", c.desc, ws.BudgetStop, c.want)
		}
	}
}

// TestSolvePreparedNoAllocs asserts the prepared+workspace hot path is
// allocation-free once warm, on an 18-vertex instance (the one-word search
// body) and an 80-vertex one (the multi-word body), dense enough to solve
// quickly. It then asserts the same of the decider's memo-miss cycle,
// PrepareInduced over a parent's adjacency rows and a certified
// SolvePrepared, on balls of 18 and 80 vertices.
func TestSolvePreparedNoAllocs(t *testing.T) {
	for _, in := range []Instance{randomInstance(18, 0.25, rng.New(13)), randomInstance(80, 0.3, rng.New(14))} {
		var ws Workspace
		var pre Prepared
		pre.Prepare(in.G, &ws)
		if _, err := (Hybrid{}).SolvePrepared(&pre, in.W, &ws); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := (Hybrid{}).SolvePrepared(&pre, in.W, &ws); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%d vertices: warmed prepared solve allocates %.1f times, want 0", in.G.N(), got)
		}
	}
	for _, c := range []struct {
		n       int
		density float64
		seed    int64
	}{{18, 0.25, 15}, {80, 0.3, 16}} {
		// The ball is every other vertex of a parent twice its size.
		parent := randomInstance(2*c.n, c.density, rng.New(c.seed))
		rows := adjacencyRows(parent.G)
		vs, w := make([]int, c.n), make([]float64, c.n)
		for i := range vs {
			vs[i], w[i] = 2*i, parent.W[2*i]
		}
		ws := Workspace{TrackSlack: true}
		var pre Prepared
		cycle := func() {
			pre.PrepareInduced(rows, vs, &ws)
			if _, err := (Hybrid{}).SolvePrepared(&pre, w, &ws); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("%d-vertex ball: warmed PrepareInduced + SolvePrepared allocates %.1f times, want 0", c.n, got)
		}
	}
}

// TestSortByWeightMatchesSortFunc pins sortByWeight, whose orders of at
// most 64 ids take an insertion sort, to slices.SortFunc under the
// comparator it always had: weight descending, ties toward the lower id,
// compared as floats. Lengths run on both sides of the 64 cutoff, in four
// regimes (all weights equal, +0 and −0, 1-ulp near-ties, continuous),
// from the identity order the solvers start from and from a shuffled one.
func TestSortByWeightMatchesSortFunc(t *testing.T) {
	src := rng.New(17)
	regimes := []struct {
		name string
		draw func() float64
	}{
		{"equal", func() float64 { return 2.0 }},
		{"signed zeros", func() float64 { return []float64{0, math.Copysign(0, -1)}[src.Intn(2)] }},
		{"1-ulp near-ties", func() float64 {
			x := 0.75
			for k := src.Intn(3); k > 0; k-- {
				x = math.Nextafter(x, 2)
			}
			return x
		}},
		{"continuous", src.Float64},
	}
	for _, n := range []int{0, 1, 2, 5, 33, 63, 64, 65, 100, 130} {
		for _, r := range regimes {
			w := make([]float64, n)
			for i := range w {
				w[i] = r.draw()
			}
			for _, shuffled := range []bool{false, true} {
				got := make([]int, n)
				for i := range got {
					got[i] = i
				}
				if shuffled {
					src.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
				}
				want := slices.Clone(got)
				slices.SortFunc(want, func(a, b int) int {
					switch {
					case w[a] > w[b]:
						return -1
					case w[a] < w[b]:
						return 1
					}
					return a - b
				})
				sortByWeight(got, w)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s shuffled=%v: %v, want %v", n, r.name, shuffled, got, want)
				}
			}
		}
	}
}
