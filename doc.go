// Package multihopbandit is a Go reproduction of "Almost Optimal Channel
// Access in Multi-Hop Networks With Unknown Channel Variables" (Zhou, Li,
// Li, Liu, Li, Yin — ICDCS 2014 / arXiv:1308.4751).
//
// The library implements the paper's full stack:
//
//   - unit-disk network topologies and the extended conflict graph H whose
//     independent sets are exactly the conflict-free channel assignments,
//   - stochastic channel models (the paper's 8-rate Gaussian catalog),
//   - maximum-weighted-independent-set solvers, including the robust PTAS of
//     Nieberg, Hurink and Kern that the paper builds on,
//   - the distributed strategy-decision protocol (Algorithm 3: LocalLeader
//     election, local MWIS, status broadcast) with message accounting,
//   - the learning policies: the paper's ∆-independent index rule
//     (equation (3)), the LLR baseline, ε-greedy, a genie oracle, and the
//     naive joint-UCB1 formulation whose O(M^N) state the paper avoids,
//   - the complete channel-access scheme (Algorithm 2) with the paper's
//     Table II time model and periodic weight updates,
//   - an experiment harness regenerating every figure and table of the
//     paper's evaluation (see EXPERIMENTS.md),
//   - a parallel experiment engine (internal/engine) that schedules
//     figure × policy × seed cells on a bounded worker pool and shares
//     expensive per-instance artifacts through a cache, and
//   - an online decision-serving runtime (internal/serve) hosting many
//     independent instances behind an HTTP/JSON daemon, and
//   - a versioned declarative scenario description (ScenarioSpec) that is
//     the single construction surface for all of the above.
//
// # Scenario specs
//
// ScenarioSpec is the recommended way to describe a scenario: a versioned
// ("v":1), JSON-serializable value composing a topology (random/grid/
// linear), a channel process (gaussian/gilbert-elliott/shifting, optionally
// wrapped with primary-user occupancy), a learning policy, and the
// distributed-decision parameters. Fill canonicalizes it (defaults applied)
// and validates strictly — unknown kinds, unknown JSON fields and fields
// inapplicable to the selected kind are rejected with typed errors. One
// spec drives every consumer identically: BuildScenario constructs the
// pieces serially, RunScenario executes it on the experiment engine,
// ServeInstanceConfig embeds one so banditd hosts it online, and
// cmd/chansim / cmd/figgen accept spec files with -spec. Equal canonical
// specs always produce bit-identical trajectories — canonicalization is
// part of the repository's bit-identity contract (CONTRIBUTING.md), and
// committed examples live under testdata/specs/.
//
//	s, err := multihopbandit.LoadScenarioSpec("testdata/specs/gilbert-elliott-grid.json")
//	// handle err
//	res, err := multihopbandit.RunScenario(multihopbandit.ScenarioRunConfig{Spec: s, Slots: 1000})
//	// res.SeriesKbps is bit-identical to a banditd instance hosting the same spec
//
// # The experiment engine
//
// RunExperiments drives the whole evaluation through the engine:
//
//	res, err := multihopbandit.RunExperiments(multihopbandit.ExperimentSuite{
//		Seed:    1,
//		Workers: 8, // 0 = GOMAXPROCS
//	})
//	// handle err; res.Fig6, res.Fig7, res.Fig8, ... hold the figures
//
// Every experiment decomposes into jobs whose random streams derive from
// the configuration alone — never from scheduling — so results are
// bit-identical for any worker count. One ArtifactCache is shared across
// the suite: N trials over the same network instance pay the topology,
// extended-conflict-graph and brute-force-optimum cost once (see
// BenchmarkInstanceSetupCached vs BenchmarkInstanceSetupUncached).
// Continuous integration (.github/workflows/ci.yml, mirrored by the
// Makefile) builds the module and runs gofmt, go vet, the race-enabled
// tests, a one-iteration benchmark smoke pass, and the serving smoke test;
// see CONTRIBUTING.md.
//
// # The slot kernel
//
// The paper's per-slot procedure — periodic distributed strategy decision,
// transmit, observe, estimator update — is implemented exactly once, in the
// core Loop kernel. The offline simulator (Scheme) and the online serving
// runtime are both thin instantiations of it, so their trajectories are
// equivalent by construction; the serving golden test remains as a
// regression tripwire rather than the only thing holding two copies
// together. The kernel offers two reward-source modes (self-sampling from a
// channel model, or externally supplied observation batches), lazy
// once-per-boundary strategy decisions, the policies' zero-allocation
// WriteIndices path with a copying fallback, and a streaming SlotObserver
// interface: recorders accumulate exactly the series a consumer needs
// (observed kbps, decision weights), so a steady-state slot performs zero
// heap allocations (BenchmarkSchemeRun). Byte-identity of the figure
// pipeline across refactors is enforced by a committed SHA-256 digest of
// figgen output at a fixed seed (`make verify-golden`, run in CI).
//
// # Decision plane
//
// Strategy decisions run on a stateful, incremental pipeline that exploits
// what is static between update boundaries. The protocol Runtime holds the
// immutable topology precomputation — the r-hop, (2r+1)-hop and (3r+2)-hop
// balls and the adjacency of every vertex, each as one bitset row per
// vertex — built once per extended graph and shared by every consumer.
// Each slot kernel owns a persistent protocol Decider layered on top:
//
//   - a rank order of the vertices (weight descending, ties toward the
//     lower id) kept across boundaries, where only the vertices whose
//     weight moved are re-sorted and merged back in; each mini-round
//     elects its leaders in one walk down that order, ORing ball rows into
//     a running union;
//   - scratch reused across boundaries (status bitsets, leader lists and
//     the MWIS workspace), so a full decision makes three allocations, all
//     of them published: the Result, its per-mini-round weight series, and
//     one backing array that its winners, strategy, per-mini-round leader
//     counts and broadcast record share; instances sharing one artifact
//     projection in the serving runtime additionally share a pooled
//     DecideArena keyed by protocol Runtime, so co-hosted replicas batch
//     their boundary decides through common scratch storage;
//   - an epoch skip: a weight vector and previous-strategy set that compare
//     equal to the previous boundary's return the cached previous Result
//     without running the protocol at all;
//   - per-leader skips inside a full decide: a LocalLeader whose candidate
//     weights compare exactly equal to its memo anchor's replays its cached
//     winner/loser split with zero solver work (a leader skip);
//   - per-leader sensitivity margins: each exact local MWIS solve records a
//     comparison-slack certificate — the minimum margin over every
//     weight-dependent comparison the branch-and-bound search made. A later
//     boundary whose candidate weights drifted by less than that slack in
//     L1 provably retraces the identical traversal, so the cached split is
//     replayed without re-solving (a sensitivity skip) while the published
//     totals are recomputed from the current weights;
//   - a structure hit (identical candidate set, drift past the slack)
//     still reuses the leader's prepared ball (adjacency bitsets and
//     clique partition) and re-runs only the solver on it, whichever
//     solver the runtime uses (mwis.SolveOn).
//
// The Decider finds every skip by comparing weights it holds: the
// policies' change reports, which the slot kernel still threads into
// DecideEpoch, are ignored, so no caller can make a decision stale.
// Every layer is exact — equal inputs are served equal outputs, and the
// sensitivity bound is a certificate, not a heuristic — so trajectories
// are bit-identical to deciding from scratch at every boundary; the
// differential suites in internal/protocol (randomized, Fig. 6-scale and
// fuzzed trajectories against a from-scratch oracle kept in the tests) and
// the figgen golden digest enforce it. The Decider is the only decide
// path: Fig. 6, the ablations and queueing run the code banditd serves.
// DecisionPlaneStats (per Scheme via DecideStats, per shard on banditd's
// /metrics) reports full decides, epoch skips, the per-leader skip
// taxonomy (leader skips, sensitivity skips, re-solves) and the
// communication totals; banditload reports them from its /metrics scrape,
// and the root TestDecideWorkGolden pins them exactly on one instance of
// each stackbench workload's shape. The CI decide-smoke job
// asserts the epoch short-circuit fires under a constant-weight policy and
// the sensitivity certificate fires under a drifting UCB policy, and the
// verify-golden job checks the figure pipeline's bytes.
//
// # Distributed execution
//
// The protocol Decider executes Algorithm 3 lock-step under an omniscient
// simulator. internal/distnet drops that abstraction: every vertex of the
// extended conflict graph is a concurrent goroutine agent that acts only
// on the control frames it actually received, exchanged over a pluggable
// Transport — an in-process channel mesh or real loopback TCP sockets
// reusing internal/wire's framing discipline — behind a composable fault
// layer: independent loss, bursty (Gilbert-chain) loss, latency/jitter,
// reordering, named link partitions with heal, and agent crash/restart.
// It attributes the control-frame volume per flood kind (WB weight
// broadcasts, LS leader declarations, LB determination broadcasts,
// originations vs relays). All faults are identity-keyed draws, so a
// decision is a deterministic function of (spec, fault seed) no matter how
// the scheduler interleaves the goroutines. Each leader solves its local
// MWIS over its prepared candidate ball, through the same mwis.SolveOn
// entry as the protocol Decider.
//
// Three invariants are tested. Fault-free, distnet's winner sets are
// bit-identical to the protocol Decider across topologies, solvers and
// transports (the golden suite in internal/distnet). Under loss, distnet
// agrees frame-for-frame with a sequential oracle kept in its tests —
// identical winners, mini-round counts and per-kind frame counts under
// identical loss seeds, for several solvers. And under arbitrary fault
// churn every decision still terminates with zero protocol violations
// (the 512-agent soak and the CI dist-smoke job). Scenario specs select
// the execution with decision.execution ("decider" or "distnet"),
// transport and a faults block — operational fields excluded from the
// artifact key — and `make bench-dist` sweeps agent count × loss ×
// latency into BENCH_dist.json, including the determination-failure-rate
// figure quantifying what the paper's reliable-control-channel assumption
// buys.
//
// # The decision-serving runtime
//
// The serving runtime turns Algorithm 2's loop (observe rates → update
// indices → solve MWIS → assign channels) into a request/response service.
// A ServeRegistry shards hosted instances across lock-free counters; each
// instance is an actor goroutine owning its policy state and mailbox.
// Instances are described by ScenarioSpec, so every spec-expressible
// scenario is hostable online, and instances whose specs share an artifact
// projection (topology, channel count, seed) share the topology, extended
// conflict graph and protocol runtime through the ArtifactCache. For a
// fixed spec a served instance's assignment sequence is bit-identical to
// the equivalent serial Scheme run.
//
//	reg := multihopbandit.NewServeRegistry(multihopbandit.ServeRegistryConfig{})
//	inst, err := reg.Create(multihopbandit.ServeInstanceConfig{
//		Spec: multihopbandit.ScenarioSpec{
//			Seed:     1,
//			Topology: multihopbandit.ScenarioTopology{N: 10},
//			Channel:  multihopbandit.ScenarioChannel{M: 2},
//		},
//	})
//	// handle err
//	res, err := inst.Step(100)      // self-simulation: decide, transmit, learn
//	as, err := inst.Assignment()    // or drive it externally:
//	_, err = inst.Observe([]multihopbandit.ObservationBatch{{Played: as.Winners, Rewards: rewards}})
//
// cmd/banditd serves a registry over HTTP/JSON (create/step/observe/
// assignment/snapshot/restore plus /metrics; errors carry structured
// {"code","message"} payloads) and, with -listen-binary, over the binary
// framed protocol of internal/wire — persistent pipelined TCP with
// per-shard accept loops, bit-identical to the JSON plane and a multiple
// faster on the step hot path (serve.BenchmarkHTTPStep against
// wire.BenchmarkWireStep measures by how much). cmd/banditload is the
// closed-loop load generator the serving smokes run; it drives either
// transport. See EXPERIMENTS.md for the serving workflow
// and OPERATIONS.md for the operator's runbook.
//
// # Durability
//
// With a data directory (banditd -data-dir, or ServePersistOptions on the
// registry) hosted learners survive crashes. Each persisted instance owns
// a directory holding its identity (meta.json: canonical spec + effective
// persistence knobs), a write-ahead observation log (CRC-framed binary
// segments recording each slot's played arms and exact reward bits before
// the request is acknowledged), and a periodic learner snapshot published
// atomically through the same bit-exact Snapshot/Restore path the serving
// API exposes. Recovery (banditd -recover / ServeRegistry.Recover)
// rebuilds every instance from snapshot + log-tail replay through the one
// slot kernel; because the log carries the exact reward bits and the
// policy streams re-derive from the spec, an externally driven recovered
// instance continues bit-identically to a run that never crashed —
// internal/serve's crash-recovery golden tests kill mid-update-period and
// assert it, and the CI recover-smoke job SIGKILLs a loaded daemon and
// asserts the restart serves every instance. A restore replaces the
// persisted trajectory before it replies. Torn log tails truncate,
// mid-file corruption is rejected, and fsync policy (always/batch/none)
// trades append latency against machine-crash loss; wal.BenchmarkAppend
// and serve.BenchmarkRecover measure the costs. A recorded stream feeds
// back through the kernel offline via ReplayRecorded (cmd/banditreplay)
// for policy A/B against the true catalog means. The WAL framing and
// snapshot file format are part of the versioned bit-identity contract
// (CONTRIBUTING.md); the directory layout, recovery semantics and metrics
// families (banditd_wal_*, banditd_regret_*) are documented in
// OPERATIONS.md.
//
// # Quick start
//
//	seed := multihopbandit.NewSeed(42)
//	nw, err := multihopbandit.RandomNetwork(multihopbandit.RandomNetworkConfig{
//		N: 15, RequireConnected: true,
//	}, seed)
//	// handle err
//	ch, err := multihopbandit.NewChannels(multihopbandit.ChannelConfig{N: 15, M: 3}, seed)
//	// handle err
//	scheme, err := multihopbandit.New(multihopbandit.Config{Net: nw, Channels: ch, M: 3})
//	// handle err
//	results, err := scheme.Run(1000)
//	// handle err
//
// Every run is deterministic given the root seed. See the examples/
// directory for complete programs, README.md for the package map and
// repository tour, and OPERATIONS.md for running banditd in production.
package multihopbandit
