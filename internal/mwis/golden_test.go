package mwis

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
// solves: about half a second of a plain build, most of it spent at the
// budget. All of them have at most 128 vertices, so they pin the two-word
// body; "widest", solved whole, pins the slice body.
const goldenWideBalls = 160

// solveWorkGolden is the local search's work on solveCases, wide cut to
// goldenWideBalls, one solve per ball.
var solveWorkGolden = map[string]solveWork{
	"uniform": {nodes: 462618, stops: 0, sums: 4937, digest: 0xbb5dac163d87dd6d},
	"unseen":  {nodes: 8000313, stops: 87, sums: 3123474, digest: 0x6d7ae66b74406fdd},
	"wide":    {nodes: 6083567, stops: 91, sums: 2680, digest: 0xe82a1ef307439749},
	"widest":  {nodes: 500000, stops: 10, sums: 207, digest: 0x6b844319e2747025},
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
			got.nodes += solveBudget - ws.st.budget
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
