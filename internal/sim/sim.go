// Package sim contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section V): Fig. 6 (mini-round
// convergence of the distributed decision), Fig. 7 (practical regret and
// β-regret versus the LLR baseline), Fig. 8 (estimated versus actual
// effective throughput under periodic weight updates) and Table II (the time
// model). See DESIGN.md §4 for the experiment index.
//
// All experiments run on the internal/engine orchestration subsystem: each
// figure decomposes into figure × policy × seed jobs scheduled on a bounded
// worker pool, and expensive per-instance artifacts (topology, extended
// conflict graph, channel means, the brute-force optimum) are shared through
// the engine's artifact cache. Random streams are derived from the
// configuration alone, never from scheduling, so every result is
// bit-identical for any worker count.
package sim

import (
	"fmt"
	"math"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/regret"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/timing"
)

// TheoremBeta returns the paper's approximation factor for ball parameter r
// and channel count M: Theorem 2 gives ρ^r ≤ M·(2r+1)², so the guaranteed
// ratio is ρ = (M·(2r+1)²)^{1/r}.
func TheoremBeta(m, r int) float64 {
	d := float64(2*r + 1)
	return math.Pow(float64(m)*d*d, 1.0/float64(r))
}

// Size is one N×M network size of Fig. 6.
type Size struct {
	N int
	M int
}

// DefaultFig6Sizes are the paper's six N×M combinations.
var DefaultFig6Sizes = []Size{
	{50, 5}, {100, 5}, {200, 5},
	{50, 10}, {100, 10}, {200, 10},
}

// Fig6Config parameterizes the mini-round convergence experiment.
type Fig6Config struct {
	// Sizes are the N×M networks to sweep (default DefaultFig6Sizes).
	Sizes []Size
	// MiniRounds is the x-axis extent (default 10, the paper's plot).
	MiniRounds int
	// R is the ball parameter (default 2, the paper's setting).
	R int
	// Seed drives topology and channel-mean generation.
	Seed int64
	// TargetDegree sizes the random deployment square (default 6).
	TargetDegree float64
	// Workers bounds concurrent per-size jobs (default GOMAXPROCS).
	Workers int
	// Cache optionally shares instance artifacts with other experiments.
	Cache *engine.ArtifactCache
}

// Fig6Series is one line of Fig. 6: cumulative output-IS weight (kbps) after
// each mini-round for one network size.
type Fig6Series struct {
	Size       Size
	WeightKbps []float64 // indexed by mini-round-1, padded after convergence
	Converged  int       // first mini-round (1-based) at which all vertices were marked
}

// fig6Instance keys the cached artifacts of one Fig. 6 network size; the
// stream derivation matches the historical per-size code exactly.
func fig6Instance(cfg Fig6Config, size Size) engine.InstanceConfig {
	return engine.InstanceConfig{
		N:            size.N,
		M:            size.M,
		TargetDegree: cfg.TargetDegree,
		Seed:         cfg.Seed,
		Stream:       "fig6",
		StreamN:      size.N*1000 + size.M,
		HasStreamN:   true,
		MeansStream:  "channels",
	}
}

// RunFig6 reproduces Fig. 6: for each network size, run the distributed
// strategy decision with per-vertex weights equal to the true channel means
// (in kbps, matching the paper's y-scale) and record the cumulative winner
// weight after every mini-round. Sizes run as parallel engine jobs.
func RunFig6(cfg Fig6Config) ([]Fig6Series, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultFig6Sizes
	}
	if cfg.MiniRounds == 0 {
		cfg.MiniRounds = 10
	}
	if cfg.R == 0 {
		cfg.R = 2
	}
	if cfg.TargetDegree == 0 {
		cfg.TargetDegree = 6
	}
	runner := engine.NewRunner(engine.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Cache: cfg.Cache,
	})
	jobs := make([]engine.Job[Fig6Series], len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		size := size
		jobs[i] = engine.Job[Fig6Series]{
			ID: engine.CellID("fig6", fmt.Sprintf("%dx%d#%d", size.N, size.M, i), cfg.Seed),
			Run: func(ctx *engine.Ctx) (Fig6Series, error) {
				return runFig6Size(cfg, size, ctx.Cache)
			},
		}
	}
	return engine.Run(runner, jobs)
}

func runFig6Size(cfg Fig6Config, size Size, cache *engine.ArtifactCache) (Fig6Series, error) {
	inst, err := cache.Instance(fig6Instance(cfg, size))
	if err != nil {
		return Fig6Series{}, fmt.Errorf("sim: fig6 %dx%d: %w", size.N, size.M, err)
	}
	rt, err := inst.Runtime(cfg.R, cfg.MiniRounds)
	if err != nil {
		return Fig6Series{}, err
	}
	res, err := rt.NewDecider().Decide(inst.Means, nil)
	if err != nil {
		return Fig6Series{}, fmt.Errorf("sim: fig6 decide %dx%d: %w", size.N, size.M, err)
	}
	series := Fig6Series{Size: size, Converged: res.MiniRounds}
	for tau := 0; tau < cfg.MiniRounds; tau++ {
		var w float64
		if tau < len(res.WeightByMiniRound) {
			w = res.WeightByMiniRound[tau]
		} else {
			w = res.WeightByMiniRound[len(res.WeightByMiniRound)-1]
		}
		series.WeightKbps = append(series.WeightKbps, channel.Kbps(w))
	}
	return series, nil
}

// PolicyKind selects a learning policy in experiment configs.
type PolicyKind int

const (
	// PolicyZhouLi is the paper's Algorithm 2 learning rule.
	PolicyZhouLi PolicyKind = iota + 1
	// PolicyLLR is the Gai–Krishnamachari–Jain baseline.
	PolicyLLR
	// PolicyEpsGreedy is the ε-greedy ablation baseline.
	PolicyEpsGreedy
	// PolicyOracle is the genie.
	PolicyOracle
	// PolicyCUCB is the combinatorial-UCB baseline of Chen et al.
	PolicyCUCB
)

// String names the policy kind.
func (p PolicyKind) String() string {
	switch p {
	case PolicyZhouLi:
		return "Algorithm2"
	case PolicyLLR:
		return "LLR"
	case PolicyEpsGreedy:
		return "EpsGreedy"
	case PolicyOracle:
		return "Oracle"
	case PolicyCUCB:
		return "CUCB"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// specPolicy maps the figure harness's PolicyKind onto the declarative
// PolicySpec, so construction flows through the one spec.BuildPolicy path.
func specPolicy(kind PolicyKind) (spec.PolicySpec, error) {
	switch kind {
	case PolicyZhouLi:
		return spec.PolicySpec{Kind: spec.PolicyZhouLi}, nil
	case PolicyLLR:
		return spec.PolicySpec{Kind: spec.PolicyLLR}, nil
	case PolicyEpsGreedy:
		return spec.PolicySpec{Kind: spec.PolicyEpsGreedy, Epsilon: 0.1}, nil
	case PolicyOracle:
		return spec.PolicySpec{Kind: spec.PolicyOracle}, nil
	case PolicyCUCB:
		return spec.PolicySpec{Kind: spec.PolicyCUCB}, nil
	default:
		return spec.PolicySpec{}, fmt.Errorf("sim: unknown policy kind %d", int(kind))
	}
}

// buildPolicy constructs a figure policy through spec.BuildPolicy. The
// ε-greedy stream keeps its historical "eps-greedy" sub-stream name — part
// of the bit-identity contract behind the figgen golden digest.
func buildPolicy(kind PolicyKind, ext *extgraph.Extended, ch *channel.Model, src *rng.Source) (policy.Policy, error) {
	ps, err := specPolicy(kind)
	if err != nil {
		return nil, err
	}
	return spec.BuildPolicy(ps, ext.K(), ext.N, ch.Means(), src.Split("eps-greedy"))
}

// Fig7Config parameterizes the regret comparison of Fig. 7.
type Fig7Config struct {
	// N and M are the network size (paper: 15 users, 3 channels).
	N, M int
	// Slots is the horizon (paper: 1000).
	Slots int
	// R and D configure the distributed decision (defaults 2 and 4).
	R, D int
	// Policies to compare (default Algorithm 2 vs LLR).
	Policies []PolicyKind
	// Seed drives everything.
	Seed int64
	// TargetDegree sizes the deployment square (default 6).
	TargetDegree float64
	// Workers bounds concurrent per-policy jobs (default GOMAXPROCS).
	Workers int
	// Cache optionally shares instance artifacts across runs: repeated
	// RunFig7 calls with equal instance parameters then pay the topology,
	// extended-graph and brute-force-optimum cost once.
	Cache *engine.ArtifactCache
}

func (c *Fig7Config) fill() {
	if c.N == 0 {
		c.N = 15
	}
	if c.M == 0 {
		c.M = 3
	}
	if c.Slots == 0 {
		c.Slots = 1000
	}
	if c.R == 0 {
		c.R = 2
	}
	if c.D == 0 {
		c.D = 4
	}
	if len(c.Policies) == 0 {
		c.Policies = []PolicyKind{PolicyZhouLi, PolicyLLR}
	}
	if c.TargetDegree == 0 {
		c.TargetDegree = 6
	}
}

// fig7Instance keys the cached Fig. 7 instance; streams match the
// historical code ("fig7" root, "topology" and "means" sub-streams).
func (c *Fig7Config) fig7Instance() engine.InstanceConfig {
	return engine.InstanceConfig{
		N:                c.N,
		M:                c.M,
		TargetDegree:     c.TargetDegree,
		RequireConnected: true,
		Seed:             c.Seed,
		Stream:           "fig7",
	}
}

// Fig7PolicyResult is one policy's regret trajectories.
type Fig7PolicyResult struct {
	Policy PolicyKind
	// PracticalRegret[t] = R1 − θ·avg_{≤t}(observed), kbps (Fig. 7a).
	PracticalRegret []float64
	// PracticalBetaRegret[t] = R1/β − θ·avg_{≤t}(observed), kbps (Fig. 7b).
	PracticalBetaRegret []float64
	// AvgThroughputKbps is the final average observed throughput.
	AvgThroughputKbps float64
}

// Fig7Result bundles the experiment output.
type Fig7Result struct {
	// OptimalKbps is the brute-force optimum R1 of the instance.
	OptimalKbps float64
	// Beta is the Theorem 2 factor used for the β-regret curve.
	Beta float64
	// Theta is t_d/t_a from the time model.
	Theta float64
	// Policies holds one trajectory per compared policy.
	Policies []Fig7PolicyResult
}

// RunFig7 reproduces Fig. 7: a connected 15×3 random network whose optimum
// is computed by brute force (once per instance, memoized by the artifact
// cache), with each policy learning for the given horizon as a parallel
// engine job; returns per-slot practical regret and β-regret series.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	cfg.fill()
	runner := engine.NewRunner(engine.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Cache: cfg.Cache,
	})
	inst, err := runner.Cache().Instance(cfg.fig7Instance())
	if err != nil {
		return nil, fmt.Errorf("sim: fig7 instance: %w", err)
	}
	optNorm, err := inst.Optimal()
	if err != nil {
		return nil, err
	}
	tp := timing.Paper()
	res := &Fig7Result{
		OptimalKbps: channel.Kbps(optNorm),
		Beta:        TheoremBeta(cfg.M, cfg.R),
		Theta:       tp.Theta(),
	}
	jobs := make([]engine.Job[Fig7PolicyResult], len(cfg.Policies))
	for i, kind := range cfg.Policies {
		kind := kind
		jobs[i] = engine.Job[Fig7PolicyResult]{
			ID: engine.CellID("fig7", fmt.Sprintf("%s#%d", kind, i), cfg.Seed),
			Run: func(*engine.Ctx) (Fig7PolicyResult, error) {
				return runFig7Policy(cfg, inst, res.OptimalKbps, res.Beta, res.Theta, tp, kind)
			},
		}
	}
	out, err := engine.Run(runner, jobs)
	if err != nil {
		return nil, err
	}
	res.Policies = out
	return res, nil
}

// runFig7Policy simulates one policy of Fig. 7. Every policy sees an
// identically-distributed channel process: same means (the cached instance),
// per-policy noise stream.
func runFig7Policy(
	cfg Fig7Config,
	inst *engine.Instance,
	optKbps, beta, theta float64,
	tp timing.Params,
	kind PolicyKind,
) (Fig7PolicyResult, error) {
	root := rng.New(cfg.Seed).Split("fig7")
	ch, err := inst.Channels(root.Split("noise-" + kind.String()))
	if err != nil {
		return Fig7PolicyResult{}, err
	}
	pol, err := buildPolicy(kind, inst.Ext, ch, root)
	if err != nil {
		return Fig7PolicyResult{}, err
	}
	scheme, err := core.New(core.Config{
		Net:      inst.Net,
		Channels: ch,
		M:        cfg.M,
		R:        cfg.R,
		D:        cfg.D,
		Policy:   pol,
		Timing:   tp,
	})
	if err != nil {
		return Fig7PolicyResult{}, err
	}
	// Stream the observed-kbps series straight off the kernel — the regret
	// math needs nothing else, so no per-slot results are materialized.
	rec := core.NewKbpsRecorder(cfg.Slots)
	if err := scheme.RunObserved(cfg.Slots, rec); err != nil {
		return Fig7PolicyResult{}, fmt.Errorf("sim: fig7 %s: %w", kind, err)
	}
	observed := rec.Series
	betaSeries, err := regret.PracticalBetaSeries(optKbps, beta, theta, observed)
	if err != nil {
		return Fig7PolicyResult{}, err
	}
	avg := 0.0
	for _, o := range observed {
		avg += o
	}
	avg /= float64(len(observed))
	return Fig7PolicyResult{
		Policy:              kind,
		PracticalRegret:     regret.PracticalSeries(optKbps, theta, observed),
		PracticalBetaRegret: betaSeries,
		AvgThroughputKbps:   avg,
	}, nil
}

// Fig8Config parameterizes the periodic-update experiment of Fig. 8.
type Fig8Config struct {
	// N and M are the network size (paper: 100 users, 10 channels).
	N, M int
	// Periods is the number of update periods (paper: 1000).
	Periods int
	// Ys are the update periods in slots (paper: 1, 5, 10, 20).
	Ys []int
	// R and D configure the distributed decision (defaults 2 and 4).
	R, D int
	// Policies to compare (default Algorithm 2 vs LLR).
	Policies []PolicyKind
	// Seed drives everything.
	Seed int64
	// TargetDegree sizes the deployment square (default 6).
	TargetDegree float64
	// Workers bounds concurrent (y, policy) jobs (default GOMAXPROCS).
	Workers int
	// Cache optionally shares instance artifacts with other experiments.
	Cache *engine.ArtifactCache
}

func (c *Fig8Config) fill() {
	if c.N == 0 {
		c.N = 100
	}
	if c.M == 0 {
		c.M = 10
	}
	if c.Periods == 0 {
		c.Periods = 1000
	}
	if len(c.Ys) == 0 {
		c.Ys = []int{1, 5, 10, 20}
	}
	if c.R == 0 {
		c.R = 2
	}
	if c.D == 0 {
		c.D = 4
	}
	if len(c.Policies) == 0 {
		c.Policies = []PolicyKind{PolicyZhouLi, PolicyLLR}
	}
	if c.TargetDegree == 0 {
		c.TargetDegree = 6
	}
}

// fig8Instance keys the cached Fig. 8 instance.
func (c *Fig8Config) fig8Instance() engine.InstanceConfig {
	return engine.InstanceConfig{
		N:            c.N,
		M:            c.M,
		TargetDegree: c.TargetDegree,
		Seed:         c.Seed,
		Stream:       "fig8",
	}
}

// Fig8Series is one curve pair of a Fig. 8 subplot: running averages of the
// actual and estimated effective throughput, per period, in kbps.
type Fig8Series struct {
	Policy PolicyKind
	// ActualAvg[z] is R̃_P(z): running average of actual effective
	// throughput up to period z.
	ActualAvg []float64
	// EstimatedAvg[z] is W̃_P(z): running average of estimated effective
	// throughput up to period z.
	EstimatedAvg []float64
}

// Fig8Subplot is one update-period setting (one subplot of Fig. 8).
type Fig8Subplot struct {
	Y      int
	Slots  int
	Series []Fig8Series
}

// RunFig8 reproduces Fig. 8: a 100×10 random network, strategy re-decided
// every y slots, horizons of Periods·y slots, comparing the running average
// actual effective throughput R̃_P against the estimated W̃_P for Algorithm 2
// and LLR. Each (y, policy) branch is one engine job over the shared cached
// instance.
func RunFig8(cfg Fig8Config) ([]Fig8Subplot, error) {
	cfg.fill()
	runner := engine.NewRunner(engine.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Cache: cfg.Cache,
	})
	inst, err := runner.Cache().Instance(cfg.fig8Instance())
	if err != nil {
		return nil, fmt.Errorf("sim: fig8 instance: %w", err)
	}
	tp := timing.Paper()
	var jobs []engine.Job[Fig8Series]
	for yi, y := range cfg.Ys {
		for pi, kind := range cfg.Policies {
			y, kind := y, kind
			jobs = append(jobs, engine.Job[Fig8Series]{
				ID: engine.CellID("fig8", fmt.Sprintf("y=%d#%d/%s#%d", y, yi, kind, pi), cfg.Seed),
				Run: func(*engine.Ctx) (Fig8Series, error) {
					s, err := runFig8Branch(cfg, inst, tp, y, kind)
					if err != nil {
						return Fig8Series{}, fmt.Errorf("sim: fig8 y=%d %s: %w", y, kind, err)
					}
					return s, nil
				},
			})
		}
	}
	results, err := engine.Run(runner, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Subplot, 0, len(cfg.Ys))
	bi := 0
	for _, y := range cfg.Ys {
		sub := Fig8Subplot{Y: y, Slots: y * cfg.Periods}
		for range cfg.Policies {
			sub.Series = append(sub.Series, results[bi])
			bi++
		}
		out = append(out, sub)
	}
	return out, nil
}

// runFig8Branch simulates one (update period, policy) combination of Fig. 8.
// It only reads the shared cached instance and derives its own random
// sub-streams, so branches run concurrently and deterministically.
func runFig8Branch(
	cfg Fig8Config,
	inst *engine.Instance,
	tp timing.Params,
	y int,
	kind PolicyKind,
) (Fig8Series, error) {
	root := rng.New(cfg.Seed).Split("fig8")
	ch, err := inst.Channels(root.SplitN("noise-"+kind.String(), y))
	if err != nil {
		return Fig8Series{}, err
	}
	pol, err := buildPolicy(kind, inst.Ext, ch, root)
	if err != nil {
		return Fig8Series{}, err
	}
	scheme, err := core.New(core.Config{
		Net:         inst.Net,
		Channels:    ch,
		M:           cfg.M,
		R:           cfg.R,
		D:           cfg.D,
		Policy:      pol,
		Timing:      tp,
		UpdateEvery: y,
	})
	if err != nil {
		return Fig8Series{}, err
	}
	// Stream the whole horizon through the kernel's recorders: the kbps
	// recorder collects every slot's observed throughput and the decision
	// recorder collects each period's estimated weight (with UpdateEvery=y
	// the decision slots are exactly the period starts). The period math
	// then windows the streamed series — no per-slot result structs.
	slots := cfg.Periods * y
	kbps := core.NewKbpsRecorder(slots)
	est := core.NewDecisionRecorder(cfg.Periods)
	if err := scheme.RunObserved(slots, core.Observers{kbps, est}); err != nil {
		return Fig8Series{}, err
	}
	if len(est.EstimatedKbps) != cfg.Periods {
		return Fig8Series{}, fmt.Errorf("sim: fig8 recorded %d decisions over %d periods", len(est.EstimatedKbps), cfg.Periods)
	}
	series := Fig8Series{Policy: kind}
	actual := make([]float64, 0, cfg.Periods)
	estimated := make([]float64, 0, cfg.Periods)
	for z := 0; z < cfg.Periods; z++ {
		rp, err := tp.PeriodThroughput(kbps.Series[z*y : (z+1)*y])
		if err != nil {
			return Fig8Series{}, err
		}
		actual = append(actual, rp)
		estimated = append(estimated, tp.PeriodEstimate(est.EstimatedKbps[z], y))
	}
	series.ActualAvg = regret.RunningAverage(actual)
	series.EstimatedAvg = regret.RunningAverage(estimated)
	return series, nil
}
