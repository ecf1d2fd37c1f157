package distnet

import (
	"reflect"
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

func testExt(t testing.TB, n, m int, seed int64, kind string) *extgraph.Extended {
	t.Helper()
	var nw *topology.Network
	var err error
	switch kind {
	case "grid":
		nw, err = topology.Grid(n, n, 1.5, 2)
	case "linear":
		nw, err = topology.Linear(n, 1, 1.5)
	default:
		nw, err = topology.Random(topology.RandomConfig{N: n}, rng.New(seed))
	}
	if err != nil {
		t.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func testWeights(ext *extgraph.Extended, seed int64) []float64 {
	src := rng.New(seed)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	return w
}

// TestGoldenFaultFreeMatchesDecider is the keystone correctness result:
// across topologies, ball parameters, round caps and solvers, the
// fault-free concurrent execution produces winner sets (and strategies)
// bit-identical to the lock-step protocol.Decider, over sequences of
// randomized evolving weights. Concurrency changes the execution, never
// the answer.
func TestGoldenFaultFreeMatchesDecider(t *testing.T) {
	cases := []struct {
		name   string
		kind   string
		n, m   int
		r, d   int
		solver mwis.Solver
	}{
		{name: "random-r2-hybrid", kind: "random", n: 20, m: 3, r: 2, d: 4, solver: mwis.Hybrid{}},
		{name: "random-r1-unbounded", kind: "random", n: 40, m: 2, r: 1, d: 0, solver: mwis.Hybrid{}},
		{name: "grid-r2-greedy", kind: "grid", n: 5, m: 2, r: 2, d: 6, solver: mwis.Greedy{}},
		{name: "linear-r3-hybrid", kind: "linear", n: 30, m: 3, r: 3, d: 8, solver: mwis.Hybrid{}},
		{name: "random-r2-exact", kind: "random", n: 15, m: 2, r: 2, d: 4, solver: mwis.Exact{}},
	}
	for ci, tc := range cases {
		ci, tc := ci, tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ext := testExt(t, tc.n, tc.m, int64(100+ci), tc.kind)
			ref, err := protocol.New(protocol.Config{Ext: ext, R: tc.r, D: tc.d, Solver: tc.solver})
			if err != nil {
				t.Fatal(err)
			}
			dec := ref.NewDecider()
			rt, err := New(Config{Ext: ext, R: tc.r, D: tc.d, Solver: tc.solver})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			src := rng.New(int64(200 + ci))
			w := testWeights(ext, int64(300+ci))
			var prev []int
			for step := 0; step < 6; step++ {
				// Evolve a random subset of weights between decisions.
				if step > 0 {
					for i := range w {
						if src.Float64() < 0.3 {
							w[i] = src.Float64()
						}
					}
				}
				want, err := dec.DecideEpoch(w, prev, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.Decide(w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Independent {
					t.Fatalf("step %d: fault-free winners not independent", step)
				}
				if !reflect.DeepEqual(got.Winners, want.Winners) {
					t.Fatalf("step %d: winners diverge:\n distnet: %v\n decider: %v", step, got.Winners, want.Winners)
				}
				if !reflect.DeepEqual(got.Played, want.Winners) {
					t.Fatalf("step %d: played != winners in fault-free mode", step)
				}
				if !reflect.DeepEqual(got.Strategy, want.Strategy) {
					t.Fatalf("step %d: strategies diverge", step)
				}
				if got.Converged != want.Converged {
					t.Fatalf("step %d: converged %v vs %v", step, got.Converged, want.Converged)
				}
				prev = want.Winners
			}
		})
	}
}

// TestGoldenOverTCP re-runs one golden combination with every frame
// crossing real loopback TCP sockets.
func TestGoldenOverTCP(t *testing.T) {
	ext := testExt(t, 20, 3, 42, "random")
	ref, err := protocol.New(protocol.Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec := ref.NewDecider()
	rt, err := New(Config{Ext: ext, R: 2, D: 4, Transport: NewTCPTransport(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	w := testWeights(ext, 43)
	src := rng.New(44)
	for step := 0; step < 4; step++ {
		if step > 0 {
			for i := range w {
				if src.Float64() < 0.5 {
					w[i] = src.Float64()
				}
			}
		}
		want, err := dec.DecideEpoch(w, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Decide(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Winners, want.Winners) {
			t.Fatalf("step %d: tcp winners diverge:\n distnet: %v\n decider: %v", step, got.Winners, want.Winners)
		}
	}
}

// TestCrossCheckOracleAgreesFrameForFrame holds the agents to the
// sequential oracle — identical winner sets, round counts AND per-kind
// frame counts under identical loss seeds — across loss rates and solvers.
// The oracle solves each leader's ball as a list graph, the agents over
// prepared adjacency rows, so this is also a differential test of the
// local split under loss. Exact's four-node budget stops most searches,
// so stopped incumbents are compared too. The agents' Metrics must count
// the frames their Results report.
func TestCrossCheckOracleAgreesFrameForFrame(t *testing.T) {
	ext := testExt(t, 30, 3, 7, "random")
	solvers := []struct {
		name   string
		solver mwis.Solver
	}{
		{"hybrid", mwis.Hybrid{}},
		{"greedy", mwis.Greedy{}},
		{"exact-budget4", mwis.Exact{Budget: 4}},
	}
	for _, sv := range solvers {
		for _, loss := range []float64{0, 0.1, 0.3, 0.6} {
			const seed = 99
			o, err := newOracle(oracleConfig{Ext: ext, R: 2, D: 6, Solver: sv.solver, DropProb: loss, LossSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var m Metrics
			nrt, err := New(Config{
				Ext: ext, R: 2, D: 6, Solver: sv.solver, Metrics: &m,
				Transport: NewFaultTransport(NewChanTransport(), Faults{Seed: seed, Loss: loss}, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			var frames FrameStats
			stops := 0
			w := testWeights(ext, 8)
			src := rng.New(9)
			for step := 0; step < 5; step++ {
				if step > 0 {
					for i := range w {
						if src.Float64() < 0.4 {
							w[i] = src.Float64()
						}
					}
				}
				a, err := o.Decide(w)
				if err != nil {
					t.Fatal(err)
				}
				b, err := nrt.Decide(w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Winners, b.Winners) {
					t.Fatalf("%s loss=%v step %d: winners diverge:\n oracle:  %v\n distnet: %v", sv.name, loss, step, a.Winners, b.Winners)
				}
				if a.Frames != b.Frames {
					t.Fatalf("%s loss=%v step %d: frame counts diverge:\n oracle:  %+v\n distnet: %+v", sv.name, loss, step, a.Frames, b.Frames)
				}
				if a.MiniRounds != b.MiniRounds || a.Converged != b.Converged ||
					a.Independent != b.Independent || a.Undetermined != b.Undetermined {
					t.Fatalf("%s loss=%v step %d: outcome diverges: %+v vs %+v", sv.name, loss, step, a, b)
				}
				frames.Add(b.Frames)
				stops += b.BudgetStops
			}
			nrt.Close()
			if _, exact := sv.solver.(mwis.Exact); exact && stops == 0 {
				t.Fatalf("%s loss=%v: no search stopped at the budget", sv.name, loss)
			}
			snap := m.Snapshot()
			for k := FrameWB; k <= FrameLB; k++ {
				if got, want := snap.FramesSent[k.String()], int64(frames.Kind(k).Total()); got != want {
					t.Fatalf("%s loss=%v: metrics count %d %s frames, results %d", sv.name, loss, got, k, want)
				}
			}
		}
	}
}

// TestFaultedRunsAreDeterministic: two runtimes with the same fault seed
// produce identical results, decision for decision, despite scheduling.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	ext := testExt(t, 25, 3, 11, "random")
	run := func() []*Result {
		rt, err := New(Config{
			Ext: ext, R: 2, D: 6,
			Transport: NewFaultTransport(NewChanTransport(), Faults{Seed: 5, Loss: 0.25}, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		w := testWeights(ext, 12)
		src := rng.New(13)
		var out []*Result
		for step := 0; step < 4; step++ {
			for i := range w {
				if src.Float64() < 0.3 {
					w[i] = src.Float64()
				}
			}
			res, err := rt.Decide(w)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i].Winners, b[i].Winners) || a[i].Frames != b[i].Frames || a[i].MiniRounds != b[i].MiniRounds {
			t.Fatalf("decision %d nondeterministic under identical fault seed:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}
