package multihopbandit

import (
	"multihopbandit/internal/cds"
	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/queueing"
	"multihopbandit/internal/regret"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/sim"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/timing"
	"multihopbandit/internal/topology"
	"multihopbandit/internal/wal"
)

// ---------------------------------------------------------------------------
// Scenario specs — the recommended construction surface
//
// A ScenarioSpec is the versioned (v1), JSON-serializable description of a
// complete scenario: topology (random/grid/linear), channel process
// (gaussian/gilbert-elliott/shifting, optionally under primary-user
// occupancy), learning policy, and decision parameters. One spec drives
// every consumer identically — the serving runtime (ServeInstanceConfig
// embeds one), the experiment engine's artifact cache, and RunScenario —
// and equal canonical specs always produce bit-identical trajectories.

// ScenarioSpec is the versioned declarative scenario description.
type ScenarioSpec = spec.ScenarioSpec

// ScenarioTopology describes the network layout part of a spec.
type ScenarioTopology = spec.TopologySpec

// ScenarioChannel describes the reward-process part of a spec.
type ScenarioChannel = spec.ChannelSpec

// ScenarioPolicy selects the learning rule of a spec.
type ScenarioPolicy = spec.PolicySpec

// ScenarioDecision configures the distributed decision of a spec.
type ScenarioDecision = spec.DecisionSpec

// ScenarioPrimary wraps a spec's channel process with primary-user
// occupancy.
type ScenarioPrimary = spec.PrimarySpec

// ScenarioPersist opts a spec's hosted instances into durable persistence
// (write-ahead observation log + periodic snapshots) when the serving
// registry has a data directory. Operational only: it never affects the
// trajectory or the artifact cache key.
type ScenarioPersist = spec.PersistSpec

// ScenarioFaults configures the fault layer of a spec's distnet
// execution (decision.execution: "distnet"): deterministic frame loss,
// Gilbert burst loss, latency/jitter, and reordering, all keyed by the
// fault seed. Operational only, like ScenarioPersist: it never affects
// the artifact cache key.
type ScenarioFaults = spec.FaultsSpec

// BuiltScenario bundles the artifacts, sampler and policy Build constructs
// from one spec.
type BuiltScenario = spec.Built

// ParseScenarioSpec strictly decodes a JSON scenario spec (unknown fields
// and kinds are rejected with typed errors) and returns its canonical form.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) { return spec.Parse(data) }

// LoadScenarioSpec reads and parses a spec file.
func LoadScenarioSpec(path string) (ScenarioSpec, error) { return spec.ParseFile(path) }

// BuildScenario canonicalizes a spec and constructs its network, extended
// graph, channel sampler and policy through the single shared build path.
func BuildScenario(s ScenarioSpec) (*BuiltScenario, error) { return spec.Build(s) }

// ScenarioRunConfig parameterizes RunScenario.
type ScenarioRunConfig = sim.ScenarioConfig

// ScenarioRunResult is the outcome of one scenario run.
type ScenarioRunResult = sim.ScenarioResult

// RunScenario executes one spec-described scenario on the experiment
// engine's artifact cache; the trajectory is bit-identical to a
// banditd-hosted instance created from the same spec.
func RunScenario(cfg ScenarioRunConfig) (*ScenarioRunResult, error) { return sim.RunScenario(cfg) }

// ---------------------------------------------------------------------------
// Randomness

// Seed is a deterministic random stream; every constructor taking a Seed is
// reproducible from it.
type Seed = rng.Source

// NewSeed returns a root random stream for the given seed value.
func NewSeed(seed int64) *Seed { return rng.New(seed) }

// ---------------------------------------------------------------------------
// Topology

// Network is a set of node positions plus the induced unit-disk conflict
// graph.
type Network = topology.Network

// RandomNetworkConfig parameterizes RandomNetwork.
type RandomNetworkConfig = topology.RandomConfig

// RandomNetwork places nodes uniformly at random in a square sized for the
// target average degree and returns the resulting network.
func RandomNetwork(cfg RandomNetworkConfig, seed *Seed) (*Network, error) {
	return topology.Random(cfg, seed)
}

// LinearNetwork returns the paper's §IV-D worst-case line topology.
func LinearNetwork(n int, spacing, radius float64) (*Network, error) {
	return topology.Linear(n, spacing, radius)
}

// GridNetwork returns a rows×cols grid topology.
func GridNetwork(rows, cols int, spacing, radius float64) (*Network, error) {
	return topology.Grid(rows, cols, spacing, radius)
}

// ---------------------------------------------------------------------------
// Channels

// Channels models the unknown per-(node, channel) reward processes.
type Channels = channel.Model

// ChannelConfig parameterizes NewChannels.
type ChannelConfig = channel.Config

// NewChannels draws per-(node, channel) means from the paper's 8-rate
// catalog and returns the stochastic channel model.
func NewChannels(cfg ChannelConfig, seed *Seed) (*Channels, error) {
	return channel.NewModel(cfg, seed)
}

// NewChannelsWithMeans builds a channel model with explicit normalized
// means (arm index k = node·M + channel).
func NewChannelsWithMeans(cfg ChannelConfig, means []float64, seed *Seed) (*Channels, error) {
	return channel.NewModelWithMeans(cfg, means, seed)
}

// Kbps converts a normalized throughput value to the paper's kbps scale.
func Kbps(normalized float64) float64 { return channel.Kbps(normalized) }

// Sampler is the reward-source interface the scheme consumes; Channels,
// GilbertElliottChannels and ShiftingChannels all implement it.
type Sampler = channel.Sampler

// GilbertElliottChannels is the restless two-state Markov channel model of
// the restless-bandit literature the paper cites.
type GilbertElliottChannels = channel.GilbertElliott

// GilbertElliottConfig parameterizes NewGilbertElliottChannels.
type GilbertElliottConfig = channel.GEConfig

// NewGilbertElliottChannels returns a restless Markov channel model.
func NewGilbertElliottChannels(cfg GilbertElliottConfig, seed *Seed) (*GilbertElliottChannels, error) {
	return channel.NewGilbertElliott(cfg, seed)
}

// ShiftingChannels is the obliviously adversarial model of the paper's
// future-work discussion: per-node means rotate every Period slots.
type ShiftingChannels = channel.Shifting

// ShiftingConfig parameterizes NewShiftingChannels.
type ShiftingConfig = channel.ShiftConfig

// NewShiftingChannels returns an adversarially shifting channel model.
func NewShiftingChannels(cfg ShiftingConfig, seed *Seed) (*ShiftingChannels, error) {
	return channel.NewShifting(cfg, seed)
}

// PrimaryUserChannels decorates any Sampler with per-channel primary-user
// occupancy: secondary transmissions earn zero while the primary is active.
type PrimaryUserChannels = channel.WithPrimary

// PrimaryUserConfig parameterizes NewPrimaryUserChannels.
type PrimaryUserConfig = channel.PrimaryConfig

// NewPrimaryUserChannels wraps inner with primary-user occupancy processes.
func NewPrimaryUserChannels(inner Sampler, cfg PrimaryUserConfig, seed *Seed) (*PrimaryUserChannels, error) {
	return channel.NewWithPrimary(inner, cfg, seed)
}

// ---------------------------------------------------------------------------
// Strategies and the extended conflict graph

// Strategy is a per-node channel assignment; NoChannel marks silent nodes.
type Strategy = extgraph.Strategy

// NoChannel marks a node that does not access any channel in a round.
const NoChannel = extgraph.NoChannel

// ExtendedGraph is the extended conflict graph H of the paper's Section III.
type ExtendedGraph = extgraph.Extended

// BuildExtendedGraph constructs H from a network's conflict graph and a
// channel count.
func BuildExtendedGraph(nw *Network, m int) (*ExtendedGraph, error) {
	return extgraph.Build(nw.G, m)
}

// ---------------------------------------------------------------------------
// Policies

// Policy produces per-arm index weights and learns from observations.
type Policy = policy.Policy

// NewZhouLiPolicy returns the paper's learning rule (equation (3)) over k
// arms (k = N·M).
func NewZhouLiPolicy(k int) (Policy, error) { return policy.NewZhouLi(k) }

// NewLLRPolicy returns the LLR baseline over k arms with strategy-size
// bound l (use the node count N).
func NewLLRPolicy(k, l int) (Policy, error) { return policy.NewLLR(k, l) }

// NewEpsilonGreedyPolicy returns an ε-greedy baseline. Its snapshots
// restore correctly only if seed had not been drawn from when passed in.
func NewEpsilonGreedyPolicy(k int, epsilon float64, seed *Seed) (Policy, error) {
	return policy.NewEpsilonGreedy(k, epsilon, seed)
}

// NewOraclePolicy returns the genie that plays the true means.
func NewOraclePolicy(trueMeans []float64) (Policy, error) {
	return policy.NewOracle(trueMeans)
}

// NewDiscountedZhouLiPolicy returns the discounted variant of the paper's
// learning rule for non-stationary channels (gamma in (0,1]; gamma=1 is the
// vanilla rule).
func NewDiscountedZhouLiPolicy(k int, gamma float64) (Policy, error) {
	return policy.NewDiscountedZhouLi(k, gamma)
}

// NewCUCBPolicy returns the combinatorial-UCB baseline of Chen et al.
func NewCUCBPolicy(k int) (Policy, error) { return policy.NewCUCB(k) }

// PolicyIndexWriter is the allocation-free variant of Policy.Indices,
// implemented by every built-in policy: WriteIndices fills a caller-owned
// buffer of length K instead of allocating per decision.
type PolicyIndexWriter = policy.IndexWriter

// LearnerState is a portable snapshot of a policy's sufficient statistics
// (the payload of the serving runtime's snapshot/restore API).
type LearnerState = policy.State

// PolicySnapshotter is implemented by policies whose learner state can be
// exported and re-imported (every built-in policy).
type PolicySnapshotter = policy.Snapshotter

// ---------------------------------------------------------------------------
// MWIS solvers

// Solver finds (approximate) maximum weighted independent sets.
type Solver = mwis.Solver

// ExactSolver returns the exact branch-and-bound MWIS solver.
func ExactSolver() Solver { return mwis.Exact{} }

// GreedySolver returns the max-weight-first heuristic.
func GreedySolver() Solver { return mwis.Greedy{} }

// HybridSolver returns budgeted-exact-with-greedy-fallback, the recommended
// local solver for the distributed protocol.
func HybridSolver() Solver { return mwis.Hybrid{} }

// RobustPTASSolver returns the centralized robust PTAS with approximation
// parameter rho = 1+ε (> 1).
func RobustPTASSolver(rho float64) Solver { return mwis.RobustPTAS{Rho: rho} }

// ---------------------------------------------------------------------------
// Timing

// Timing is the round/mini-round time model of §IV-E.
type Timing = timing.Params

// PaperTiming returns the Table II parameter set (t_a=2000ms, t_b=100ms,
// t_l=50ms, t_d=1000ms, θ=0.5).
func PaperTiming() Timing { return timing.Paper() }

// ---------------------------------------------------------------------------
// The scheme (Algorithm 2)

// Config parameterizes the channel access scheme.
type Config = core.Config

// Scheme is a running instance of the paper's distributed channel access
// scheme (Algorithm 2).
type Scheme = core.Scheme

// SlotResult reports one time slot of the scheme.
type SlotResult = core.SlotResult

// SlotView is the slot kernel's streaming per-slot report; its slices alias
// kernel buffers valid only during the OnSlot call.
type SlotView = core.SlotView

// SlotObserver streams per-slot output from Scheme.RunObserved without
// materializing SlotResults (zero allocations on steady-state slots).
type SlotObserver = core.SlotObserver

// KbpsRecorder is a SlotObserver accumulating the observed throughput
// series on the paper's kbps scale.
type KbpsRecorder = core.KbpsRecorder

// DecisionRecorder is a SlotObserver accumulating one entry (slot,
// estimated weight in kbps) per strategy decision.
type DecisionRecorder = core.DecisionRecorder

// NewKbpsRecorder pre-allocates a KbpsRecorder for the given slot count.
func NewKbpsRecorder(slots int) *KbpsRecorder { return core.NewKbpsRecorder(slots) }

// NewDecisionRecorder pre-allocates a DecisionRecorder for the given
// decision count.
func NewDecisionRecorder(decisions int) *DecisionRecorder {
	return core.NewDecisionRecorder(decisions)
}

// DecisionResult is the outcome of one distributed strategy decision
// (Algorithm 3), including communication statistics.
type DecisionResult = protocol.Result

// DecisionStats aggregates the per-decision communication accounting. Its
// per-vertex relay counts are the MessagesPerVertex method, which derives
// them from the decision's recorded broadcasts on every call and returns a
// fresh slice; it was a field until the decision stopped counting relays
// while deciding.
type DecisionStats = protocol.Stats

// DecisionPlaneStats is the incremental decision plane's cumulative
// accounting: how update boundaries were served (full protocol runs vs
// weight-epoch skips), the per-leader skip taxonomy inside full runs
// (exact leader skips, sensitivity skips certified by the comparison-slack
// bound, structure hits and misses — the latter two being actual local
// MWIS re-solves), and the communication totals of the full runs.
// Scheme.DecideStats exposes a running scheme's counters; the serving
// runtime publishes the same quantities per shard on banditd's /metrics.
type DecisionPlaneStats = protocol.DecideStats

// New builds a Scheme.
func New(cfg Config) (*Scheme, error) { return core.New(cfg) }

// OptimalStatic computes the genie-optimal static strategy via exact MWIS
// over the true (current) channel means (small networks only).
func OptimalStatic(ext *ExtendedGraph, ch Sampler) (Strategy, float64, error) {
	return core.OptimalStatic(ext, ch)
}

// ---------------------------------------------------------------------------
// Regret measures

// PracticalRegretSeries returns the running per-slot average practical
// regret of Fig. 7(a): R1 − θ·avg(observed).
func PracticalRegretSeries(optimal, theta float64, observed []float64) []float64 {
	return regret.PracticalSeries(optimal, theta, observed)
}

// PracticalBetaRegretSeries returns the β-regret series of Fig. 7(b):
// R1/β − θ·avg(observed).
func PracticalBetaRegretSeries(optimal, beta, theta float64, observed []float64) ([]float64, error) {
	return regret.PracticalBetaSeries(optimal, beta, theta, observed)
}

// CumulativeRegret returns the textbook cumulative regret of equation (1).
func CumulativeRegret(optimal float64, actual []float64) []float64 {
	return regret.Cumulative(optimal, actual)
}

// TheoremBeta returns the Theorem 2 approximation factor
// ρ = (M·(2r+1)²)^{1/r}.
func TheoremBeta(m, r int) float64 { return sim.TheoremBeta(m, r) }

// ---------------------------------------------------------------------------
// Experiment harness (the paper's evaluation)

// Experiment configuration and result types, re-exported so downstream users
// can regenerate the paper's figures programmatically.
type (
	// Fig6Config parameterizes the mini-round convergence experiment.
	Fig6Config = sim.Fig6Config
	// Fig6Series is one line of Fig. 6.
	Fig6Series = sim.Fig6Series
	// Fig7Config parameterizes the regret comparison.
	Fig7Config = sim.Fig7Config
	// Fig7Result bundles the Fig. 7 output.
	Fig7Result = sim.Fig7Result
	// Fig8Config parameterizes the periodic-update experiment.
	Fig8Config = sim.Fig8Config
	// Fig8Subplot is one update-period setting of Fig. 8.
	Fig8Subplot = sim.Fig8Subplot
)

// RunFig6 regenerates Fig. 6 (convergence of the distributed decision).
func RunFig6(cfg Fig6Config) ([]Fig6Series, error) { return sim.RunFig6(cfg) }

// RunFig7 regenerates Fig. 7 (practical regret and β-regret vs LLR).
func RunFig7(cfg Fig7Config) (*Fig7Result, error) { return sim.RunFig7(cfg) }

// RunFig8 regenerates Fig. 8 (estimated vs actual effective throughput
// under periodic updates).
func RunFig8(cfg Fig8Config) ([]Fig8Subplot, error) { return sim.RunFig8(cfg) }

// SummaryStats holds cross-seed summary statistics (mean, std, 95% CI).
type SummaryStats = sim.Summary

// ReplicateFig7 runs the Fig. 7 comparison over multiple seeds on a worker
// pool and summarizes the endpoints.
func ReplicateFig7(base Fig7Config, seeds []int64, workers int) (*sim.Fig7Replicated, error) {
	return sim.RunFig7Replicated(base, seeds, workers)
}

// SeedRange returns n consecutive seeds starting at base.
func SeedRange(base int64, n int) []int64 { return sim.SeedRange(base, n) }

// ---------------------------------------------------------------------------
// Experiment engine

// ArtifactCache memoizes expensive per-instance artifacts (topology, the
// extended conflict graph H, channel means, the brute-force optimum) across
// experiment trials. Pass one cache to several experiment configs to share
// instances between them.
type ArtifactCache = engine.ArtifactCache

// NewArtifactCache returns an empty artifact cache.
func NewArtifactCache() *ArtifactCache { return engine.NewArtifactCache() }

// CacheStats reports artifact-cache hit/miss accounting.
type CacheStats = engine.CacheStats

// ExperimentSuite selects and parameterizes a batch of evaluation
// experiments executed through the orchestration engine with a shared
// artifact cache.
type ExperimentSuite = sim.SuiteConfig

// ExperimentResults bundles the outputs of RunExperiments.
type ExperimentResults = sim.SuiteResult

// RunExperiments regenerates the selected evaluation experiments (Fig. 6–8,
// the ablations, the non-stationary extension, and optionally the Fig. 7
// multi-seed replication) through the engine: every figure decomposes into
// figure × policy × seed jobs on a bounded worker pool, with deterministic
// per-job random streams — results are bit-identical for any worker count.
func RunExperiments(cfg ExperimentSuite) (*ExperimentResults, error) {
	return sim.RunExperiments(cfg)
}

// ---------------------------------------------------------------------------
// Online decision serving (internal/serve, cmd/banditd, cmd/banditload)

// ServeRegistry is the sharded registry of the online decision-serving
// runtime: each hosted instance is an actor goroutine running Algorithm 2
// as a request/response service, with immutable artifacts (topology,
// extended graph, protocol runtime) shared through an ArtifactCache.
type ServeRegistry = serve.Registry

// ServeRegistryConfig parameterizes NewServeRegistry.
type ServeRegistryConfig = serve.RegistryConfig

// ServeInstanceConfig parameterizes one hosted instance.
type ServeInstanceConfig = serve.InstanceConfig

// ServeInstance is a handle to one hosted instance (Step, Observe,
// Assignment, Snapshot, Restore).
type ServeInstance = serve.Instance

// ServeAssignment is the channel assignment an instance currently serves.
type ServeAssignment = serve.Assignment

// ServeSnapshot is the full restorable state of a hosted instance.
type ServeSnapshot = serve.Snapshot

// ObservationBatch is one round of external observations pushed to a
// hosted instance.
type ObservationBatch = serve.ObservationBatch

// NewServeRegistry builds a decision-serving registry.
func NewServeRegistry(cfg ServeRegistryConfig) *ServeRegistry { return serve.NewRegistry(cfg) }

// DecisionServer exposes a ServeRegistry over HTTP/JSON; it is the handler
// cmd/banditd listens with.
type DecisionServer = serve.Server

// NewDecisionServer wraps a registry in an HTTP handler.
func NewDecisionServer(reg *ServeRegistry) *DecisionServer { return serve.NewServer(reg) }

// ServeClient is the typed HTTP client for a banditd server (cmd/banditload
// is built on it).
type ServeClient = serve.Client

// NewServeClient returns a client for the banditd server at base, e.g.
// "http://127.0.0.1:8650".
func NewServeClient(base string) *ServeClient { return serve.NewClient(base) }

// ---------------------------------------------------------------------------
// Durability (write-ahead observation log, snapshots, record/replay)

// ServePersistOptions configures a registry's durable storage: the data
// directory, whether every instance persists (banditd -persist-all) or only
// specs with a persist block, and the default snapshot/fsync knobs. See
// OPERATIONS.md for the on-disk layout and recovery semantics.
type ServePersistOptions = serve.PersistOptions

// ServeInstanceMeta is a persisted instance's identity file (meta.json):
// the canonical spec and effective persistence knobs needed to rebuild it.
type ServeInstanceMeta = serve.InstanceMeta

// ObservationRecord is one write-ahead-logged slot: the arms whose rewards
// were observed and the exact reward bits.
type ObservationRecord = wal.Record

// ReadRecordedInstance loads a persisted instance's meta and complete
// observation stream from its directory
// (<data-dir>/instances/id-<id>) — the input of ReplayRecorded. Record
// with persist.keep_log so the stream is contiguous from slot 0.
func ReadRecordedInstance(dir string) (ServeInstanceMeta, []ObservationRecord, error) {
	return serve.ReadRecorded(dir)
}

// ReplayRecordedConfig parameterizes ReplayRecorded.
type ReplayRecordedConfig = sim.ReplayConfig

// ReplayRecordedResult is the outcome of one offline replay.
type ReplayRecordedResult = sim.ReplayResult

// ReplayRecorded feeds a recorded observation stream back through the slot
// kernel, optionally under a different policy, scoring the replayed
// decisions exactly against the scenario's true means and brute-force
// optimum — offline policy A/B without touching production
// (cmd/banditreplay is the CLI).
func ReplayRecorded(cfg ReplayRecordedConfig) (*ReplayRecordedResult, error) {
	return sim.ReplayScenario(cfg)
}

// ---------------------------------------------------------------------------
// Scheduling substrate (queueing)

// SchedulerConfig parameterizes a MaxWeight queueing System.
type SchedulerConfig = queueing.Config

// SchedulerSystem is a MaxWeight link scheduler over packet queues with
// unknown service rates, built on the paper's distributed MWIS decision.
type SchedulerSystem = queueing.System

// NewScheduler builds a MaxWeight queueing system.
func NewScheduler(cfg SchedulerConfig) (*SchedulerSystem, error) { return queueing.New(cfg) }

// ---------------------------------------------------------------------------
// Broadcast backbone (CDS)

// BroadcastBackbone is a connected dominating set usable as the pipelined
// weight-broadcast backbone of the WB step.
type BroadcastBackbone = cds.Backbone

// BuildBackbone constructs a CDS of the network's conflict graph.
func BuildBackbone(nw *Network) (*BroadcastBackbone, error) { return cds.Build(nw.G) }
