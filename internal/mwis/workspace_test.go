package mwis

import (
	"errors"
	"math"
	"testing"

	"multihopbandit/internal/rng"
)

// TestSolveWorkspaceMatchesSolve is the workspace path's bit-identity
// guard: for every solver, SolveWorkspace on a shared reused workspace must
// return exactly what a fresh Solve returns — same set, same error class —
// across random instances of varying size and density, including budgeted
// exact searches that exhaust their budget.
func TestSolveWorkspaceMatchesSolve(t *testing.T) {
	solvers := []WorkspaceSolver{
		Greedy{},
		Exact{},
		Exact{Budget: 8}, // forces ErrBudgetExceeded incumbents
		Hybrid{},
		Hybrid{Budget: 8},
		Hybrid{MaxExactNodes: 10}, // forces the greedy-only branch
	}
	var ws Workspace
	for seed := int64(0); seed < 60; seed++ {
		src := rng.New(seed)
		n := 4 + src.Intn(24)
		in := randomInstance(n, 0.1+0.3*src.Float64(), src)
		for _, s := range solvers {
			want, wantErr := s.Solve(in)
			got, gotErr := s.SolveWorkspace(in, &ws)
			if (wantErr == nil) != (gotErr == nil) ||
				errors.Is(wantErr, ErrBudgetExceeded) != errors.Is(gotErr, ErrBudgetExceeded) {
				t.Fatalf("seed %d %s: error %v (workspace) vs %v (solve)", seed, s.Name(), gotErr, wantErr)
			}
			if len(want) != len(got) {
				t.Fatalf("seed %d %s: %v (workspace) vs %v (solve)", seed, s.Name(), got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d %s: %v (workspace) vs %v (solve)", seed, s.Name(), got, want)
				}
			}
		}
	}
}

// TestSolveWorkspaceEmptyAndInvalid covers the degenerate paths.
func TestSolveWorkspaceEmptyAndInvalid(t *testing.T) {
	var ws Workspace
	empty := randomInstance(0, 0, rng.New(1))
	for _, s := range []WorkspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
		set, err := s.SolveWorkspace(empty, &ws)
		if err != nil || len(set) != 0 {
			t.Fatalf("%s on empty instance: set %v, err %v", s.Name(), set, err)
		}
	}
	bad := randomInstance(5, 0.3, rng.New(2))
	bad.W[2] = -1
	for _, s := range []WorkspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
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
// allocations — the property the protocol decider's hot path relies on.
func TestSolveWorkspaceNoAllocs(t *testing.T) {
	in := randomInstance(18, 0.25, rng.New(9))
	var ws Workspace
	for _, s := range []WorkspaceSolver{Greedy{}, Exact{}, Hybrid{}} {
		if _, err := s.SolveWorkspace(in, &ws); err != nil { // warm
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := s.SolveWorkspace(in, &ws); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: warmed workspace solve allocates %.1f times, want 0", s.Name(), got)
		}
	}
}

// TestSolvePreparedMatchesSolve is the prepared path's bit-identity guard:
// preparing a graph once and solving it under many weight vectors must
// return exactly what Hybrid.Solve returns per vector — including budgeted
// searches that fall back to the greedy heuristic and oversize instances
// that skip the exact search entirely.
func TestSolvePreparedMatchesSolve(t *testing.T) {
	hybrids := []Hybrid{
		{},
		{Budget: 8},
		{MaxExactNodes: 10},
	}
	var ws Workspace
	var pre Prepared
	for seed := int64(0); seed < 30; seed++ {
		src := rng.New(seed + 500)
		n := 4 + src.Intn(24)
		in := randomInstance(n, 0.1+0.3*src.Float64(), src)
		pre.Prepare(in.G, &ws)
		for rounds := 0; rounds < 4; rounds++ {
			for _, h := range hybrids {
				want, wantErr := h.Solve(in)
				got, gotErr := h.SolvePrepared(&pre, in.W, &ws)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: error %v (prepared) vs %v (solve)", seed, gotErr, wantErr)
				}
				if len(want) != len(got) {
					t.Fatalf("seed %d: %v (prepared) vs %v (solve)", seed, got, want)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("seed %d: %v (prepared) vs %v (solve)", seed, got, want)
					}
				}
			}
			// Drift the weights and re-solve on the same preparation.
			for j := 0; j < 1+src.Intn(3); j++ {
				in.W[src.Intn(n)] = src.Float64()
			}
		}
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

// TestSolvePreparedNoAllocs asserts the prepared+workspace hot path is
// allocation-free once warm.
func TestSolvePreparedNoAllocs(t *testing.T) {
	in := randomInstance(18, 0.25, rng.New(13))
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
		t.Errorf("warmed prepared solve allocates %.1f times, want 0", got)
	}
}
