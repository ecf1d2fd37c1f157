package mwis

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

// solveWork is what TestSolvePreparedWorkGolden pins for one case.
type solveWork struct {
	nodes  int    // branch-and-bound nodes
	stops  int    // solves stopped at the budget (Workspace.BudgetStop)
	sums   int    // nodes that summed their clique heads exactly
	digest uint64 // FNV-64a of every returned set and Slack's bits
}

// goldenWideBalls is how many of the "wide" case's balls the golden
// solves. All of them have at most 128 vertices, so they pin the two-word
// body; "widest", solved whole, pins the slice body.
const goldenWideBalls = 160

// solveWorkGolden is the local search's work on solveCases, wide cut to
// goldenWideBalls, one solve per ball. Before the search switched to the
// cover bound past coverAfter nodes, these read uniform 462,618 nodes;
// unseen 8,000,313 nodes and 87 stops; wide 6,083,567 nodes and 91 stops;
// widest 500,000 nodes and 10 stops. Before one-word searches bounded by
// the cover of the whole ball (rootCover) instead of the degree partition,
// uniform read 439,974 nodes and 4,927 exact sums, its digest 0xdb59…f280
// (the same sets; 355 of its 500 slacks have since moved, 199 up and 156
// down), and unseen 2,513,040 nodes and 904,490 exact sums.
var solveWorkGolden = map[string]solveWork{
	"uniform": {nodes: 320236, stops: 0, sums: 4628, digest: 0xe7e7599a490e40e7},
	"unseen":  {nodes: 1633304, stops: 0, sums: 546471, digest: 0x333b0b555b6fe973},
	"wide":    {nodes: 1581260, stops: 2, sums: 2110, digest: 0x9c2188e9b05e78bb},
	"widest":  {nodes: 408248, stops: 6, sums: 172, digest: 0x6d1abac18597a67f},
}

// TestSolvePreparedWorkGolden pins the local search's work on
// BenchmarkSolvePrepared's own balls and weights: each ball solved once by
// Hybrid.SolvePrepared at the decider's budget with the slack certificate
// requested. Timing is too noisy to gate on, but these counts repeat
// exactly. Any count above its golden is a regression and fails; one below
// it is a gain, and fails until the golden is updated with it. The digest
// covers every returned set and slack certificate, so it must match
// exactly.
func TestSolvePreparedWorkGolden(t *testing.T) {
	h := Hybrid{Budget: solveBudget}
	for _, c := range solveCases(t) {
		if c.name == "wide" {
			c.balls, c.weights = c.balls[:goldenWideBalls], c.weights[:goldenWideBalls]
		}
		ws := Workspace{TrackSlack: true}
		var got solveWork
		hash := fnv.New64a()
		var buf []byte
		for k := range c.balls {
			set, err := h.SolvePrepared(&c.balls[k], c.weights[k], &ws)
			if err != nil {
				t.Fatal(err)
			}
			got.nodes += ws.st.nodes
			got.sums += ws.st.sums
			if ws.BudgetStop {
				got.stops++
			}
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(set)))
			for _, v := range set {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ws.Slack))
			hash.Write(buf)
		}
		got.digest = hash.Sum64()
		want := solveWorkGolden[c.name]
		for _, cnt := range []struct {
			name      string
			got, want int
		}{{"nodes", got.nodes, want.nodes}, {"budget stops", got.stops, want.stops}, {"exact sums", got.sums, want.sums}} {
			switch {
			case cnt.got > cnt.want:
				t.Errorf("%s: %s rose from %d to %d", c.name, cnt.name, cnt.want, cnt.got)
			case cnt.got < cnt.want:
				t.Errorf("%s: %s fell from %d to %d; update solveWorkGolden", c.name, cnt.name, cnt.want, cnt.got)
			}
		}
		if got.digest != want.digest {
			t.Errorf("%s: sets and slacks digest %#x, want %#x", c.name, got.digest, want.digest)
		}
	}
}

// TestSolveCasesSameAnswer runs checkSameAnswer on every ball of
// solveCases, wide cut to goldenWideBalls, under its weights.
func TestSolveCasesSameAnswer(t *testing.T) {
	var ws Workspace
	for _, c := range solveCases(t) {
		if c.name == "wide" {
			c.balls, c.weights = c.balls[:goldenWideBalls], c.weights[:goldenWideBalls]
		}
		checked := 0
		for k := range c.balls {
			if checkSameAnswer(t, fmt.Sprintf("%s ball %d", c.name, k), &c.balls[k], c.weights[k], sameAnswerBudget, &ws) {
				checked++
			}
		}
		t.Logf("%s: %d of %d balls", c.name, checked, len(c.balls))
	}
}

// coverChanged lists the solveCases balls whose answers the cover bounds
// changed: on each, the static-bound search over Prepared's degree
// partition stops at the decider's budget with a set lighter than the
// ball's optimum, and the search finishes within it. They are every such
// ball of unseen and wide on which the static search finishes within
// 300,000 nodes, and one of unseen's (ball 190) on which it takes about
// 610,000.
var coverChanged = []struct {
	name string
	ball int
}{{"unseen", 190}, {"wide", 104}, {"wide", 125}, {"wide", 428}, {"wide", 445}, {"wide", 451}, {"wide", 524}}

// TestCoverChangedAnswers compares, on the coverChanged balls, what it
// cannot compare at sameAnswerBudget: the static-bound search over the
// degree partition, run until it finishes within staticBudget (5M) nodes,
// must return the set that the search returns within the decider's
// budget. It first checks that each ball is one whose answer the covers
// changed. On one-word balls such as unseen's, the static search over the
// root cover (refSolve) finishes within the decider's budget, so that
// checkSameAnswer compares them.
func TestCoverChangedAnswers(t *testing.T) {
	cases := solveCases(t)
	var ws Workspace
	for _, b := range coverChanged {
		c := cases[slices.IndexFunc(cases, func(c solveCase) bool { return c.name == b.name })]
		p, w := &c.balls[b.ball], c.weights[b.ball]
		desc := fmt.Sprintf("%s ball %d", b.name, b.ball)
		stopped := refSolveOn(p, w, solveBudget, false, false)
		set, exhausted := ws.exact(p, w, solveBudget, false)
		if in := (Instance{W: w}); stopped.exhausted || !exhausted || !(in.Weight(stopped.set) < in.Weight(set)) {
			t.Fatalf("%s: static-bound search exhausted %v with %v, search exhausted %v with %v; want a stop, a finish and a heavier set",
				desc, stopped.exhausted, stopped.set, exhausted, set)
		}
		want := refSolveOn(p, w, staticBudget, false, false)
		if !want.exhausted {
			t.Fatalf("%s: static-bound search did not finish within %d nodes", desc, staticBudget)
		}
		if !slices.Equal(set, want.set) {
			t.Fatalf("%s: set %v, static-bound search %v after %d nodes", desc, set, want.set, want.nodes)
		}
	}
}
