// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablations over the design parameters called out in
// DESIGN.md §5. Run all of them with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper-relevant headline quantity via b.ReportMetric
// so `bench_output.txt` doubles as a results table:
//
//	BenchmarkTable2Timing        θ and derived durations
//	BenchmarkFig6_*              final summed IS weight, convergence mini-round
//	BenchmarkFig7a / Fig7b       final practical (β-)regret for both policies
//	BenchmarkFig8_y*             final actual/estimated effective throughput
//	BenchmarkAblation*           parameter sweeps (r, D, solver, policy)
package multihopbandit

import (
	"fmt"
	"testing"

	"multihopbandit/internal/cds"
	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/distnet"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/queueing"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/sim"
	"multihopbandit/internal/timing"
	"multihopbandit/internal/topology"
)

// ---------------------------------------------------------------------------
// Table II

// BenchmarkTable2Timing measures the (trivial) time-model computations and
// reports the derived θ so the Table II constants land in bench_output.txt.
func BenchmarkTable2Timing(b *testing.B) {
	p := timing.Paper()
	var theta float64
	for i := 0; i < b.N; i++ {
		theta = p.Theta()
		_ = p.MiniRound()
		_ = p.Decision()
		_ = p.EffectiveFraction(20)
	}
	b.ReportMetric(theta, "theta")
	b.ReportMetric(float64(p.MiniRound().Milliseconds()), "t_m_ms")
}

// ---------------------------------------------------------------------------
// Fig. 6 — one benchmark per N×M series of the paper

func benchFig6(b *testing.B, n, m int) {
	b.Helper()
	var final float64
	var converged int
	for i := 0; i < b.N; i++ {
		series, err := sim.RunFig6(sim.Fig6Config{
			Seed:  1,
			Sizes: []sim.Size{{N: n, M: m}},
		})
		if err != nil {
			b.Fatal(err)
		}
		final = series[0].WeightKbps[len(series[0].WeightKbps)-1]
		converged = series[0].Converged
	}
	b.ReportMetric(final, "final_kbps")
	b.ReportMetric(float64(converged), "converged_round")
}

func BenchmarkFig6_50x5(b *testing.B)   { benchFig6(b, 50, 5) }
func BenchmarkFig6_100x5(b *testing.B)  { benchFig6(b, 100, 5) }
func BenchmarkFig6_200x5(b *testing.B)  { benchFig6(b, 200, 5) }
func BenchmarkFig6_50x10(b *testing.B)  { benchFig6(b, 50, 10) }
func BenchmarkFig6_100x10(b *testing.B) { benchFig6(b, 100, 10) }
func BenchmarkFig6_200x10(b *testing.B) { benchFig6(b, 200, 10) }

// ---------------------------------------------------------------------------
// Fig. 7 — practical regret and β-regret vs LLR (15 users, 3 channels)

func fig7Final(b *testing.B, slots int) *sim.Fig7Result {
	b.Helper()
	res, err := sim.RunFig7(sim.Fig7Config{Seed: 42, Slots: slots})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig7a reports the final practical regret of both policies.
func BenchmarkFig7a(b *testing.B) {
	var res *sim.Fig7Result
	for i := 0; i < b.N; i++ {
		res = fig7Final(b, 1000)
	}
	for _, p := range res.Policies {
		last := p.PracticalRegret[len(p.PracticalRegret)-1]
		b.ReportMetric(last, p.Policy.String()+"_regret_kbps")
	}
}

// BenchmarkFig7b reports the final practical β-regret of both policies.
func BenchmarkFig7b(b *testing.B) {
	var res *sim.Fig7Result
	for i := 0; i < b.N; i++ {
		res = fig7Final(b, 1000)
	}
	for _, p := range res.Policies {
		last := p.PracticalBetaRegret[len(p.PracticalBetaRegret)-1]
		b.ReportMetric(last, p.Policy.String()+"_bregret_kbps")
	}
}

// ---------------------------------------------------------------------------
// Fig. 8 — periodic weight update (100 users, 10 channels, scaled horizon)

func benchFig8(b *testing.B, y int) {
	b.Helper()
	var sub sim.Fig8Subplot
	for i := 0; i < b.N; i++ {
		subs, err := sim.RunFig8(sim.Fig8Config{
			Seed: 7,
			// 200 periods keeps a single bench iteration in seconds while
			// preserving the Fig. 8 ordering; cmd/figgen runs the full
			// 1000-period version.
			Periods: 200,
			Ys:      []int{y},
		})
		if err != nil {
			b.Fatal(err)
		}
		sub = subs[0]
	}
	for _, s := range sub.Series {
		last := len(s.ActualAvg) - 1
		b.ReportMetric(s.ActualAvg[last], s.Policy.String()+"_act_kbps")
		b.ReportMetric(s.EstimatedAvg[last], s.Policy.String()+"_est_kbps")
	}
}

func BenchmarkFig8_y1(b *testing.B)  { benchFig8(b, 1) }
func BenchmarkFig8_y5(b *testing.B)  { benchFig8(b, 5) }
func BenchmarkFig8_y10(b *testing.B) { benchFig8(b, 10) }
func BenchmarkFig8_y20(b *testing.B) { benchFig8(b, 20) }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core building blocks

func benchDecisionSetup(b *testing.B, n, m, r, d int) (*protocol.Runtime, []float64) {
	b.Helper()
	nw, err := topology.Random(topology.RandomConfig{N: n}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, m)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := protocol.New(protocol.Config{Ext: ext, R: r, D: d})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(4)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	return rt, w
}

// BenchmarkDistributedDecision measures one full strategy decision
// (Algorithm 3 with D=4) on the Fig. 8 network scale. Every iteration
// decides through a fresh Decider, the one-shot cost Fig. 6 pays: a decider
// held across iterations would serve every call after the first from its
// weight-epoch cache.
func BenchmarkDistributedDecision(b *testing.B) {
	rt, w := benchDecisionSetup(b, 100, 10, 2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.NewDecider().Decide(w, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageCounting verifies the accounting overhead is negligible
// and reports the per-decision max per-vertex message count. Like
// BenchmarkDistributedDecision it times one-shot deciders.
func BenchmarkMessageCounting(b *testing.B) {
	rt, w := benchDecisionSetup(b, 100, 5, 2, 4)
	res, err := rt.NewDecider().Decide(w, nil)
	if err != nil {
		b.Fatal(err)
	}
	prev := res.Winners
	b.ResetTimer()
	var maxMsg int
	for i := 0; i < b.N; i++ {
		r2, err := rt.NewDecider().Decide(w, prev)
		if err != nil {
			b.Fatal(err)
		}
		maxMsg = r2.Stats.MaxMessages()
	}
	b.ReportMetric(float64(maxMsg), "max_msgs_per_vertex")
}

// BenchmarkPTASvsExact compares the centralized robust PTAS against the
// exact solver on a 60-node unit-disk instance (Theorem 2 setting) and
// reports the realized approximation ratio.
func BenchmarkPTASvsExact(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 60}, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(6)
	w := make([]float64, 60)
	for i := range w {
		w[i] = src.Float64()
	}
	in := mwis.Instance{G: nw.G, W: w}
	exact, err := (mwis.Exact{}).Solve(in)
	if err != nil {
		b.Fatal(err)
	}
	opt := in.Weight(exact)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := (mwis.RobustPTAS{Rho: 1.5}).Solve(in)
		if err != nil {
			b.Fatal(err)
		}
		ratio = opt / in.Weight(set)
	}
	b.ReportMetric(ratio, "opt/ptas")
}

// BenchmarkExactMWIS measures the exact solver on the Fig. 7 instance size
// (15 nodes × 3 channels = 45 vertices of H).
func BenchmarkExactMWIS(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 15, RequireConnected: true}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 3)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(8)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	in := mwis.Instance{G: ext.H, W: w}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (mwis.Exact{}).Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointUCB1Blowup measures the cost of ONE joint-UCB1 selection
// sweep over the enumerated strategy space of a small network — the O(M^N)
// state the paper's formulation avoids. The strategy count is reported.
func BenchmarkJointUCB1Blowup(b *testing.B) {
	g, err := topology.Random(topology.RandomConfig{N: 8, TargetDegree: 4}, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(g.G, 3)
	if err != nil {
		b.Fatal(err)
	}
	joint, err := policy.NewJointUCB1(ext)
	if err != nil {
		b.Skip("strategy space exceeded the enumeration cap:", err)
	}
	b.ReportMetric(float64(joint.NumStrategies()), "strategies")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := joint.Select()
		joint.Observe(float64(len(s)))
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// BenchmarkAblationR sweeps the ball parameter r: larger r improves the
// local-MWIS quality guarantee but grows balls and message radii.
func BenchmarkAblationR(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			rt, w := benchDecisionSetup(b, 60, 5, r, 4)
			var weight float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rt.NewDecider().Decide(w, nil)
				if err != nil {
					b.Fatal(err)
				}
				weight = res.WeightByMiniRound[len(res.WeightByMiniRound)-1]
			}
			b.ReportMetric(weight, "decision_weight")
		})
	}
}

// BenchmarkAblationD sweeps the mini-round cap D: more mini-rounds commit
// more weight on hard instances at linear decision-time cost.
func BenchmarkAblationD(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			rt, w := benchDecisionSetup(b, 60, 5, 2, d)
			var weight float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rt.NewDecider().Decide(w, nil)
				if err != nil {
					b.Fatal(err)
				}
				weight = res.WeightByMiniRound[len(res.WeightByMiniRound)-1]
			}
			b.ReportMetric(weight, "decision_weight")
		})
	}
}

// BenchmarkAblationSolver compares local-MWIS solvers inside the
// distributed decision.
func BenchmarkAblationSolver(b *testing.B) {
	solvers := []mwis.Solver{mwis.Greedy{}, mwis.Hybrid{}, mwis.Exact{Budget: 500000}}
	for _, solver := range solvers {
		b.Run(solver.Name(), func(b *testing.B) {
			nw, err := topology.Random(topology.RandomConfig{N: 60}, rng.New(3))
			if err != nil {
				b.Fatal(err)
			}
			ext, err := extgraph.Build(nw.G, 5)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := protocol.New(protocol.Config{Ext: ext, R: 2, D: 4, Solver: solver})
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(4)
			w := make([]float64, ext.K())
			for i := range w {
				w[i] = src.Float64()
			}
			var weight float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rt.NewDecider().Decide(w, nil)
				if err != nil {
					b.Fatal(err)
				}
				weight = res.WeightByMiniRound[len(res.WeightByMiniRound)-1]
			}
			b.ReportMetric(weight, "decision_weight")
		})
	}
}

// BenchmarkAblationPolicy compares learning policies end-to-end on a 20×4
// network over 200 slots and reports the final average throughput.
func BenchmarkAblationPolicy(b *testing.B) {
	kinds := []sim.PolicyKind{sim.PolicyZhouLi, sim.PolicyLLR, sim.PolicyCUCB, sim.PolicyEpsGreedy, sim.PolicyOracle}
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				nw, err := topology.Random(topology.RandomConfig{N: 20}, rng.New(11))
				if err != nil {
					b.Fatal(err)
				}
				ch, err := channel.NewModel(channel.Config{N: 20, M: 4}, rng.New(12))
				if err != nil {
					b.Fatal(err)
				}
				var pol policy.Policy
				switch kind {
				case sim.PolicyZhouLi:
					pol, err = policy.NewZhouLi(20 * 4)
				case sim.PolicyLLR:
					pol, err = policy.NewLLR(20*4, 20)
				case sim.PolicyEpsGreedy:
					pol, err = policy.NewEpsilonGreedy(20*4, 0.1, rng.New(13))
				case sim.PolicyCUCB:
					pol, err = policy.NewCUCB(20 * 4)
				case sim.PolicyOracle:
					pol, err = policy.NewOracle(ch.Means())
				}
				if err != nil {
					b.Fatal(err)
				}
				scheme, err := core.New(core.Config{Net: nw, Channels: ch, M: 4, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				results, err := scheme.Run(200)
				if err != nil {
					b.Fatal(err)
				}
				total := 0.0
				for _, r := range results {
					total += r.ObservedKbps
				}
				avg = total / 200
			}
			b.ReportMetric(avg, "avg_kbps")
		})
	}
}

// ---------------------------------------------------------------------------
// Extension subsystems

// BenchmarkMessageGranularDecision measures one decision of the concurrent
// agent-per-vertex runtime (internal/distnet) on a mid-size network and
// reports the control-frame volume.
func BenchmarkMessageGranularDecision(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 40}, rng.New(15))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 4)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := distnet.New(distnet.Config{Ext: ext, R: 2, D: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	src := rng.New(16)
	w := make([]float64, ext.K())
	for i := range w {
		w[i] = src.Float64()
	}
	var frames int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.Decide(w)
		if err != nil {
			b.Fatal(err)
		}
		frames = res.Frames.Total()
	}
	b.ReportMetric(float64(frames), "frames_sent")
}

// BenchmarkLossSweep reports committed weight under growing control-frame
// loss (the paper assumes a reliable channel; this quantifies the cost of
// dropping that assumption).
func BenchmarkLossSweep(b *testing.B) {
	for _, drop := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("drop=%.1f", drop), func(b *testing.B) {
			nw, err := topology.Random(topology.RandomConfig{N: 30}, rng.New(17))
			if err != nil {
				b.Fatal(err)
			}
			ext, err := extgraph.Build(nw.G, 3)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := distnet.New(distnet.Config{
				Ext: ext, R: 2, D: 6,
				Transport: distnet.NewFaultTransport(distnet.NewChanTransport(), distnet.Faults{Seed: 1, Loss: drop}, nil),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			src := rng.New(18)
			w := make([]float64, ext.K())
			for i := range w {
				w[i] = src.Float64()
			}
			var weight float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := rt.Decide(w)
				if err != nil {
					b.Fatal(err)
				}
				weight = 0
				for _, v := range res.Winners {
					weight += w[v]
				}
			}
			b.ReportMetric(weight, "decision_weight")
		})
	}
}

// BenchmarkMaxWeightScheduler measures one slot of the learned MaxWeight
// scheduler (internal/queueing) at moderate load.
func BenchmarkMaxWeightScheduler(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 30}, rng.New(19))
	if err != nil {
		b.Fatal(err)
	}
	ext, err := extgraph.Build(nw.G, 4)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := channel.NewModel(channel.Config{N: 30, M: 4}, rng.New(20))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := queueing.New(queueing.Config{Ext: ext, Rates: rates, ArrivalRate: 0.5, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var backlog float64
	for i := 0; i < b.N; i++ {
		st, err := sys.Step()
		if err != nil {
			b.Fatal(err)
		}
		backlog = st.TotalQueue
	}
	b.ReportMetric(backlog, "total_queue")
}

// BenchmarkCDSBuild measures the broadcast-backbone construction on the
// Fig. 8 network scale and reports the backbone size.
func BenchmarkCDSBuild(b *testing.B) {
	nw, err := topology.Random(topology.RandomConfig{N: 200}, rng.New(22))
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backbone, err := cds.Build(nw.G)
		if err != nil {
			b.Fatal(err)
		}
		size = len(backbone.Members)
	}
	b.ReportMetric(float64(size), "backbone_size")
}

// BenchmarkInstanceSetupUncached measures the per-trial setup cost the
// pre-engine harness paid on every replication — topology placement,
// extended-conflict-graph construction and channel-mean generation at the
// Fig. 8 scale — by forcing a cold artifact-cache build each iteration.
func BenchmarkInstanceSetupUncached(b *testing.B) {
	cfg := engine.InstanceConfig{N: 100, M: 10, TargetDegree: 6, Seed: 7, Stream: "fig8"}
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewArtifactCache().Instance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceSetupCached measures the same lookup served from the
// engine's artifact cache — the steady-state cost every trial after the
// first pays under the experiment engine.
func BenchmarkInstanceSetupCached(b *testing.B) {
	cfg := engine.InstanceConfig{N: 100, M: 10, TargetDegree: 6, Seed: 7, Stream: "fig8"}
	cache := engine.NewArtifactCache()
	if _, err := cache.Instance(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Instance(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CachedReruns measures repeated Fig. 7 runs sharing one
// artifact cache: every rerun skips topology, extended-graph and
// brute-force-optimum construction.
func BenchmarkFig7CachedReruns(b *testing.B) {
	cache := engine.NewArtifactCache()
	cfg := sim.Fig7Config{Seed: 42, Slots: 100, Cache: cache}
	if _, err := sim.RunFig7(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateParallel measures the multi-seed driver's scaling on a
// small Fig. 6 workload.
func BenchmarkReplicateParallel(b *testing.B) {
	run := func(seed int64) (float64, error) {
		res, err := sim.RunFig6(sim.Fig6Config{Seed: seed, Sizes: []sim.Size{{N: 20, M: 3}}})
		if err != nil {
			return 0, err
		}
		return res[0].WeightKbps[9], nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replicate(sim.ReplicateConfig{Seeds: sim.SeedRange(1, 8)}, run); err != nil {
			b.Fatal(err)
		}
	}
}
