package sim

import (
	"fmt"
	"strings"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
)

// AblationConfig parameterizes the single-decision ablations (r, D, solver).
type AblationConfig struct {
	// N, M are the network dimensions (defaults 60, 5).
	N, M int
	// Seed drives topology and weights.
	Seed int64
	// Workers bounds concurrent sweep points (default GOMAXPROCS).
	Workers int
	// Cache optionally shares the instance across sweeps; the r, D and
	// solver ablations all run on the same cached topology and weights.
	Cache *engine.ArtifactCache
}

func (c *AblationConfig) fill() {
	if c.N == 0 {
		c.N = 60
	}
	if c.M == 0 {
		c.M = 5
	}
}

// ablationInstance keys the shared ablation instance; the stream derivation
// matches the historical code ("ablation" root, "channels" means).
func (c *AblationConfig) ablationInstance() engine.InstanceConfig {
	return engine.InstanceConfig{
		N:           c.N,
		M:           c.M,
		Seed:        c.Seed,
		Stream:      "ablation",
		MeansStream: "channels",
	}
}

// AblationPoint is one parameter setting's outcome.
type AblationPoint struct {
	// Label identifies the setting ("r=2", "D=4", "greedy", ...).
	Label string
	// WeightKbps is the committed decision weight.
	WeightKbps float64
	// MiniRounds executed.
	MiniRounds int
	// MaxMessages is the largest per-vertex relay count.
	MaxMessages int
	// MiniTimeslots consumed by the decision.
	MiniTimeslots int
}

func runDecision(ext *extgraph.Extended, w []float64, r, d int, solver mwis.Solver, label string) (AblationPoint, error) {
	rt, err := protocol.New(protocol.Config{Ext: ext, R: r, D: d, Solver: solver})
	if err != nil {
		return AblationPoint{}, err
	}
	res, err := rt.NewDecider().Decide(w, nil)
	if err != nil {
		return AblationPoint{}, err
	}
	weight := 0.0
	if len(res.WeightByMiniRound) > 0 {
		weight = res.WeightByMiniRound[len(res.WeightByMiniRound)-1]
	}
	return AblationPoint{
		Label:         label,
		WeightKbps:    channel.Kbps(weight),
		MiniRounds:    res.MiniRounds,
		MaxMessages:   res.Stats.MaxMessages(),
		MiniTimeslots: res.Stats.MiniTimeslots,
	}, nil
}

// sweepPoint is one parameter setting of an ablation sweep.
type sweepPoint struct {
	label  string
	r, d   int
	solver mwis.Solver
}

// runAblationSweep executes one decision per sweep point as parallel engine
// jobs over the shared cached instance, returning points in sweep order.
func runAblationSweep(cfg AblationConfig, name string, points []sweepPoint) ([]AblationPoint, error) {
	cfg.fill()
	runner := engine.NewRunner(engine.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Cache: cfg.Cache,
	})
	jobs := make([]engine.Job[AblationPoint], len(points))
	for i, pt := range points {
		pt := pt
		jobs[i] = engine.Job[AblationPoint]{
			ID: engine.CellID(name, fmt.Sprintf("%s#%d", pt.label, i), cfg.Seed),
			Run: func(ctx *engine.Ctx) (AblationPoint, error) {
				inst, err := ctx.Cache.Instance(cfg.ablationInstance())
				if err != nil {
					return AblationPoint{}, err
				}
				return runDecision(inst.Ext, inst.Means, pt.r, pt.d, pt.solver, pt.label)
			},
		}
	}
	return engine.Run(runner, jobs)
}

// RunAblationR sweeps the ball parameter r ∈ {1, 2, 3} on one decision.
func RunAblationR(cfg AblationConfig) ([]AblationPoint, error) {
	var points []sweepPoint
	for _, r := range []int{1, 2, 3} {
		points = append(points, sweepPoint{label: fmt.Sprintf("r=%d", r), r: r, d: 4})
	}
	return runAblationSweep(cfg, "ablation-r", points)
}

// RunAblationD sweeps the mini-round cap D ∈ {1, 2, 4, 8, unbounded}.
func RunAblationD(cfg AblationConfig) ([]AblationPoint, error) {
	var points []sweepPoint
	for _, d := range []int{1, 2, 4, 8, 0} {
		label := fmt.Sprintf("D=%d", d)
		if d == 0 {
			label = "D=∞"
		}
		points = append(points, sweepPoint{label: label, r: 2, d: d})
	}
	return runAblationSweep(cfg, "ablation-d", points)
}

// RunAblationSolver compares the LocalLeaders' local MWIS solver.
func RunAblationSolver(cfg AblationConfig) ([]AblationPoint, error) {
	var points []sweepPoint
	for _, solver := range []mwis.Solver{mwis.Greedy{}, mwis.Hybrid{}, mwis.Exact{Budget: 500000}} {
		points = append(points, sweepPoint{label: solver.Name(), r: 2, d: 4, solver: solver})
	}
	return runAblationSweep(cfg, "ablation-solver", points)
}

// RenderAblation prints ablation points as an aligned table.
func RenderAblation(title string, points []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%12s %12s %11s %9s %14s\n",
		"setting", "weight_kbps", "mini-rounds", "max-msgs", "mini-timeslots")
	for _, p := range points {
		fmt.Fprintf(&b, "%12s %12.0f %11d %9d %14d\n",
			p.Label, p.WeightKbps, p.MiniRounds, p.MaxMessages, p.MiniTimeslots)
	}
	return b.String()
}

// ShiftConfig parameterizes the non-stationary extension experiment (the
// paper's future-work adversarial setting).
type ShiftConfig struct {
	// N, M are the network dimensions (defaults 15, 3).
	N, M int
	// Slots is the horizon (default 1200).
	Slots int
	// Period is the slot count between mean rotations (default 150).
	Period int
	// Gamma is the discount factor of the discounted policy (default 0.98).
	Gamma float64
	// Seed drives everything.
	Seed int64
	// Workers bounds concurrent policy jobs (default GOMAXPROCS).
	Workers int
	// Cache optionally shares the topology with other experiments.
	Cache *engine.ArtifactCache
}

func (c *ShiftConfig) fill() {
	if c.N == 0 {
		c.N = 15
	}
	if c.M == 0 {
		c.M = 3
	}
	if c.Slots == 0 {
		c.Slots = 1200
	}
	if c.Period == 0 {
		c.Period = 150
	}
	if c.Gamma == 0 {
		c.Gamma = 0.98
	}
}

// ShiftSeries is one policy's running-average throughput on the shifting
// channel.
type ShiftSeries struct {
	Name    string
	AvgKbps []float64 // running average per slot
}

// ShiftResult bundles the extension experiment output.
type ShiftResult struct {
	Period int
	Series []ShiftSeries
}

// RunShift runs the non-stationary extension experiment: channels whose
// per-node means rotate every Period slots, learned by the vanilla ZhouLi
// rule and by its discounted variant, one engine job per policy. The
// discounted policy's running average recovers after each rotation; the
// vanilla one decays.
func RunShift(cfg ShiftConfig) (*ShiftResult, error) {
	cfg.fill()
	runner := engine.NewRunner(engine.Config{
		Workers: cfg.Workers, Seed: cfg.Seed, Cache: cfg.Cache,
	})
	inst, err := runner.Cache().Instance(engine.InstanceConfig{
		N:                cfg.N,
		M:                cfg.M,
		RequireConnected: true,
		Seed:             cfg.Seed,
		Stream:           "shift-exp",
		// The shift experiment brings its own (shifting) channel model and
		// core.New builds H itself, so only the topology is shared.
		TopologyOnly: true,
	})
	if err != nil {
		return nil, err
	}
	type entry struct {
		name string
		mk   func() (policy.Policy, error)
	}
	entries := []entry{
		{"Algorithm2", func() (policy.Policy, error) { return policy.NewZhouLi(cfg.N * cfg.M) }},
		{"Discounted", func() (policy.Policy, error) {
			return policy.NewDiscountedZhouLi(cfg.N*cfg.M, cfg.Gamma)
		}},
	}
	jobs := make([]engine.Job[ShiftSeries], len(entries))
	for i, e := range entries {
		e := e
		jobs[i] = engine.Job[ShiftSeries]{
			ID: engine.CellID("shift", fmt.Sprintf("%s#%d", e.name, i), cfg.Seed),
			Run: func(*engine.Ctx) (ShiftSeries, error) {
				return runShiftEntry(cfg, inst, e.name, e.mk)
			},
		}
	}
	series, err := engine.Run(runner, jobs)
	if err != nil {
		return nil, err
	}
	return &ShiftResult{Period: cfg.Period, Series: series}, nil
}

func runShiftEntry(cfg ShiftConfig, inst *engine.Instance, name string, mk func() (policy.Policy, error)) (ShiftSeries, error) {
	root := rng.New(cfg.Seed).Split("shift-exp")
	ch, err := channel.NewShifting(channel.ShiftConfig{
		N: cfg.N, M: cfg.M, Period: cfg.Period,
	}, root.Split("channels-"+name))
	if err != nil {
		return ShiftSeries{}, err
	}
	pol, err := mk()
	if err != nil {
		return ShiftSeries{}, err
	}
	scheme, err := core.New(core.Config{Net: inst.Net, Channels: ch, M: cfg.M, Policy: pol})
	if err != nil {
		return ShiftSeries{}, err
	}
	// Stream the per-slot kbps series off the kernel; only the running
	// average survives.
	rec := core.NewKbpsRecorder(cfg.Slots)
	if err := scheme.RunObserved(cfg.Slots, rec); err != nil {
		return ShiftSeries{}, err
	}
	series := ShiftSeries{Name: name, AvgKbps: make([]float64, len(rec.Series))}
	sum := 0.0
	for i, x := range rec.Series {
		sum += x
		series.AvgKbps[i] = sum / float64(i+1)
	}
	return series, nil
}

// RenderShift prints the extension experiment as a sampled table.
func RenderShift(res *ShiftResult, samples int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — non-stationary channels (means rotate every %d slots)\n", res.Period)
	if len(res.Series) == 0 {
		return b.String()
	}
	n := len(res.Series[0].AvgKbps)
	samples = clampSamples(samples, n)
	fmt.Fprintf(&b, "%10s", "slot")
	for _, s := range res.Series {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteString("\n")
	for i := 0; i < samples; i++ {
		idx := (i+1)*n/samples - 1
		fmt.Fprintf(&b, "%10d", idx+1)
		for _, s := range res.Series {
			fmt.Fprintf(&b, " %12.1f", s.AvgKbps[idx])
		}
		b.WriteString("\n")
	}
	return b.String()
}
