package mwis

import (
	"errors"
	"math"
	"testing"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
)

// solvePreparedTracked runs Hybrid.SolvePrepared with the slack certificate
// requested and returns a copy of the set plus the reported slack.
func solvePreparedTracked(t *testing.T, h Hybrid, p *Prepared, w []float64, ws *Workspace) ([]int, float64) {
	t.Helper()
	ws.TrackSlack = true
	set, err := h.SolvePrepared(p, w, ws)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal(err)
	}
	return append([]int(nil), set...), ws.Slack
}

// TestSlackCertificateSoundness is the property the sensitivity-skip path
// rests on: for any weight vector whose L1 distance to the solved vector
// stays strictly below the reported slack, a from-scratch solve returns the
// identical set. Randomized over topologies, densities and drift shapes:
// 120 trials of 2–19 vertices, which the one-word search body solves, 40
// sparse ones of 65–100 vertices for the two-word body, and 20 of 129–160
// vertices for the slice body. Those are dense (density 0.4–0.8): at that
// size a sparse instance's clique bound is loose enough that its search
// stops at the node budget, which certifies nothing.
func TestSlackCertificateSoundness(t *testing.T) {
	small := checkSlackSoundness(t, 120, rng.New(71), 2, 18, 0.1, 0.6)
	if small.certified < 40 || small.driftTrials < 200 {
		t.Fatalf("weak coverage: %d certified solves, %d drift trials", small.certified, small.driftTrials)
	}
	wide := checkSlackSoundness(t, 40, rng.New(72), 65, 36, 0.02, 0.04)
	if wide.certified < 10 || wide.driftTrials < 100 {
		t.Fatalf("weak coverage over 65–100 vertices: %d certified solves, %d drift trials", wide.certified, wide.driftTrials)
	}
	widest := checkSlackSoundness(t, 20, rng.New(73), 129, 32, 0.4, 0.4)
	if widest.certified < 10 || widest.driftTrials < 100 {
		t.Fatalf("weak coverage over 129–160 vertices: %d certified solves, %d drift trials", widest.certified, widest.driftTrials)
	}
}

// slackCoverage counts what one checkSlackSoundness run exercised.
type slackCoverage struct{ certified, driftTrials int }

// checkSlackSoundness runs TestSlackCertificateSoundness's trials on
// instances of minN to minN+spanN−1 vertices and edge density minP to
// minP+spanP.
func checkSlackSoundness(t *testing.T, trials int, src *rng.Source, minN, spanN int, minP, spanP float64) slackCoverage {
	t.Helper()
	var h Hybrid
	certified, driftTrials := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := minN + src.Intn(spanN)
		in := randomInstance(n, minP+spanP*src.Float64(), src)
		var p Prepared
		var ws Workspace
		p.Prepare(in.G, &ws)
		base, slack := solvePreparedTracked(t, h, &p, in.W, &ws)
		if slack <= 0 {
			continue
		}
		certified++
		for d := 0; d < 12; d++ {
			// Random non-negative drift with L1 norm strictly below slack.
			w2 := append([]float64(nil), in.W...)
			budget := slack * (0.1 + 0.85*src.Float64())
			if math.IsInf(budget, 1) {
				budget = 1.0
			}
			for j := 0; j < 1+src.Intn(n); j++ {
				v := src.Intn(n)
				step := budget * src.Float64() / float64(n)
				if src.Intn(2) == 0 && w2[v] >= step {
					w2[v] -= step
				} else {
					w2[v] += step
				}
			}
			d1 := 0.0
			for i := range w2 {
				d1 += math.Abs(w2[i] - in.W[i])
			}
			if d1 >= slack {
				continue
			}
			driftTrials++
			var ws2 Workspace
			got, err := h.SolvePrepared(&p, w2, &ws2)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(base, got) {
				t.Fatalf("trial %d: drifted solve diverged under certified slack:\n base %v (w=%v, slack=%v)\n got %v (w'=%v, d1=%v)",
					trial, base, in.W, slack, got, w2, d1)
			}
		}
	}
	return slackCoverage{certified, driftTrials}
}

// TestUniquenessGapCertificate pins the second certificate on an instance
// built so the two disagree: vertices 1 and 2 both conflict with 3, so the
// only competitive alternative to the optimum {0,3} is {0,1,2}, a gap of
// 1.01 away — but the traversal sees that subtree only through a clique
// bound prune whose halved margin is 0.505. With the default budget the
// unpruned tree (2·(3·2·2)−1 = 23 nodes) fits, so the uniqueness gap is
// granted and the reported slack is the full 1.01; with the budget pinned
// to the pruned search's exact node count (below 23), exhaustion under
// drifted weights is no longer guaranteed and the slack falls back to the
// traversal certificate alone.
func TestUniquenessGapCertificate(t *testing.T) {
	g := graph.New(4)
	for _, e := range [][2]int{{1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	w := []float64{3, 0.5, 0.49, 2}
	var p Prepared
	var ws Workspace
	p.Prepare(g, &ws)

	set, slack := solvePreparedTracked(t, Hybrid{}, &p, w, &ws)
	if !equalIntSlices(set, []int{0, 3}) {
		t.Fatalf("optimum = %v, want [0 3]", set)
	}
	if math.Abs(slack-1.01) > 1e-9 {
		t.Fatalf("default-budget slack = %v, want the uniqueness gap 1.01", slack)
	}

	// SolvePrepared hides budget exhaustion behind the greedy fallback, so
	// probe for the smallest budget whose tracked solve certifies at all:
	// that is the first budget the exact search completes under.
	minBudget, gated := 0, 0.0
	for b := 1; b < 23; b++ {
		if _, s := solvePreparedTracked(t, Hybrid{Budget: b}, &p, w, &ws); s > 0 {
			minBudget, gated = b, s
			break
		}
	}
	if minBudget == 0 {
		t.Fatal("pruned search did not complete below the 23-node unpruned bound")
	}
	if math.Abs(gated-0.505) > 1e-9 {
		t.Fatalf("gated slack = %v at budget %d, want the traversal-only 0.505 (halved prune margin)", gated, minBudget)
	}
}

// TestSlackZeroOnTies pins the tie rule: equal weights force a zero slack,
// because a tie-resolved comparison can flip under arbitrarily small drift.
func TestSlackZeroOnTies(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	var p Prepared
	var ws Workspace
	p.Prepare(g, &ws)
	_, slack := solvePreparedTracked(t, Hybrid{}, &p, []float64{0.5, 0.5, 0.25}, &ws)
	if slack != 0 {
		t.Fatalf("tied pivot weights reported slack %v, want 0", slack)
	}
}

// TestSlackZeroOffCertifiedPaths pins the invalidation rules: a
// budget-exceeded search and the greedy big-instance path both report zero
// slack, and a solve without TrackSlack leaves no stale certificate behind.
func TestSlackZeroOffCertifiedPaths(t *testing.T) {
	src := rng.New(9)
	in := randomInstance(16, 0.3, src)
	var p Prepared
	var ws Workspace
	p.Prepare(in.G, &ws)

	_, slack := solvePreparedTracked(t, Hybrid{Budget: 1}, &p, in.W, &ws)
	if slack != 0 {
		t.Fatalf("budget-exceeded search reported slack %v, want 0", slack)
	}
	_, slack = solvePreparedTracked(t, Hybrid{MaxExactNodes: 4}, &p, in.W, &ws)
	if slack != 0 {
		t.Fatalf("greedy path reported slack %v, want 0", slack)
	}

	// A tracked solve that certifies, then an untracked one: the workspace
	// must not carry the old certificate forward.
	_, slack = solvePreparedTracked(t, Hybrid{}, &p, in.W, &ws)
	if slack <= 0 {
		t.Skip("instance happened to tie; soundness is covered above")
	}
	ws.TrackSlack = false
	if _, err := (Hybrid{}).SolvePrepared(&p, in.W, &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Slack != 0 {
		t.Fatalf("untracked solve left slack %v, want 0", ws.Slack)
	}
}

// TestSlackTrackingDoesNotChangeResults asserts the observer effect is nil:
// tracked and untracked prepared solves return identical sets.
func TestSlackTrackingDoesNotChangeResults(t *testing.T) {
	src := rng.New(33)
	var h Hybrid
	for trial := 0; trial < 60; trial++ {
		n := 1 + src.Intn(20)
		in := randomInstance(n, 0.4, src)
		var p Prepared
		var wsA, wsB Workspace
		p.Prepare(in.G, &wsA)
		wsA.TrackSlack = true
		a, errA := h.SolvePrepared(&p, in.W, &wsA)
		b, errB := h.SolvePrepared(&p, in.W, &wsB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: tracked err=%v, untracked err=%v", trial, errA, errB)
		}
		if !equalIntSlices(a, b) {
			t.Fatalf("trial %d: tracked %v != untracked %v", trial, a, b)
		}
	}
}

func equalIntSlices(a, b []int) bool {
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
