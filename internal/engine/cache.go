package engine

import (
	"errors"
	"fmt"
	"sync"

	"multihopbandit/internal/channel"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/topology"
)

// InstanceConfig fully determines one cached simulation instance: the
// unit-disk topology, the extended conflict graph H, and the true channel
// means. Two equal configs always denote bit-identical artifacts, which is
// what makes them safe to share across trials.
type InstanceConfig struct {
	// N and M are the node and channel counts.
	N, M int
	// TargetDegree sizes the deployment square (0 uses the topology
	// package's default).
	TargetDegree float64
	// RequireConnected retries placement until the conflict graph connects.
	RequireConnected bool
	// Seed is the experiment's root seed.
	Seed int64
	// Stream names the root sub-stream the instance is drawn from, e.g.
	// "fig7": the builder derives rng.New(Seed).Split(Stream).
	Stream string
	// StreamN, when HasStreamN is set, switches the root derivation to
	// rng.New(Seed).SplitN(Stream, StreamN) — Fig. 6 keys one root per
	// network size this way.
	StreamN    int
	HasStreamN bool
	// MeansStream names the sub-stream the true channel means are drawn
	// from. Empty defaults to "means"; Fig. 6 and the ablations use
	// "channels".
	MeansStream string
	// TopologyOnly skips the extended-graph and channel-mean construction;
	// the cached Instance then has nil Ext and Means. Use it when only the
	// network is needed (e.g. the shift experiment brings its own channel
	// model).
	TopologyOnly bool
}

func (c InstanceConfig) normalized() InstanceConfig {
	if c.MeansStream == "" {
		c.MeansStream = "means"
	}
	return c
}

// Instance bundles the shareable artifacts of one network instance. All
// fields are immutable after construction; per-trial state (channel noise,
// policies, schemes) must be built per job via Channels or directly.
type Instance struct {
	// Net is the unit-disk network.
	Net *topology.Network
	// Ext is the extended conflict graph H (nil when TopologyOnly).
	Ext *extgraph.Extended
	// Means are the true per-arm channel means, normalized (nil when
	// TopologyOnly).
	Means []float64

	cfg InstanceConfig

	optOnce sync.Once
	optVal  float64
	optErr  error

	rtMu sync.Mutex
	rts  map[runtimeKey]*protocol.Runtime
}

// runtimeKey identifies one memoized protocol runtime of an instance.
type runtimeKey struct{ r, d int }

// Config returns the normalized config the instance was built from.
func (in *Instance) Config() InstanceConfig { return in.cfg }

// Channels builds a fresh stochastic channel model over the instance's true
// means, drawing noise from the given stream. Each trial needs its own model
// because sampling is stateful.
func (in *Instance) Channels(noise *rng.Source) (*channel.Model, error) {
	if in.Means == nil {
		return nil, errors.New("engine: Channels on a topology-only instance")
	}
	return channel.NewModelWithMeans(channel.Config{N: in.cfg.N, M: in.cfg.M}, in.Means, noise)
}

// Optimal returns the genie-optimal static strategy weight (normalized),
// computed once per instance by exact MWIS over H and memoized — the single
// most expensive per-instance artifact of the Fig. 7 replications.
func (in *Instance) Optimal() (float64, error) {
	in.optOnce.Do(func() {
		if in.Ext == nil {
			in.optErr = errors.New("engine: Optimal on a topology-only instance")
			return
		}
		inst := mwis.Instance{G: in.Ext.H, W: in.Means}
		set, err := (mwis.Exact{}).Solve(inst)
		if err != nil {
			in.optErr = fmt.Errorf("engine: exact optimum: %w", err)
			return
		}
		// The vertex set must map to a feasible per-node strategy (one
		// channel per node); fail loudly rather than score against an
		// infeasible "optimum".
		if _, err := in.Ext.StrategyFromVertices(set); err != nil {
			in.optErr = fmt.Errorf("engine: exact optimum infeasible: %w", err)
			return
		}
		in.optVal = inst.Weight(set)
	})
	return in.optVal, in.optErr
}

// Runtime returns a protocol runtime (default MWIS solver) over the
// instance's extended graph for ball parameter r and mini-round cap d,
// memoized per (r, d). The runtime's hop-neighborhood precomputation is the
// dominant per-instance setup cost after the optimum, and a Runtime is
// immutable once built (each consumer decides through its own
// protocol.Decider, which only reads the precomputed balls), so one build
// serves every consumer of the instance — this is what lets the serving
// runtime host many replicas of one network for the price of one BFS
// sweep. Concurrent first calls serialize on the instance; exactly one
// builds.
func (in *Instance) Runtime(r, d int) (*protocol.Runtime, error) {
	if in.Ext == nil {
		return nil, errors.New("engine: Runtime on a topology-only instance")
	}
	in.rtMu.Lock()
	defer in.rtMu.Unlock()
	key := runtimeKey{r: r, d: d}
	if rt, ok := in.rts[key]; ok {
		return rt, nil
	}
	rt, err := protocol.New(protocol.Config{Ext: in.Ext, R: r, D: d})
	if err != nil {
		return nil, fmt.Errorf("engine: instance runtime: %w", err)
	}
	if in.rts == nil {
		in.rts = make(map[runtimeKey]*protocol.Runtime)
	}
	in.rts[key] = rt
	return rt, nil
}

// CacheStats reports the cache's accounting counters.
type CacheStats struct {
	// Hits counts lookups served from an existing entry, including waits on
	// an in-flight build by another job.
	Hits int
	// Misses counts lookups that triggered a build.
	Misses int
	// Entries is the number of distinct instances held.
	Entries int
}

// ArtifactCache memoizes instance construction keyed by InstanceConfig. It
// is safe for concurrent use and deduplicates in-flight builds: when many
// jobs request the same instance at once, exactly one builds it and the
// rest wait.
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[InstanceConfig]*cacheEntry
	// scenarios memoizes spec-built instances by their canonical artifact
	// projection, so same-artifact scenarios share one build across all
	// channel kinds and policies (see Scenario).
	scenarios map[spec.ArtifactKey]*cacheEntry
	hits      int
	misses    int
}

type cacheEntry struct {
	ready chan struct{}
	inst  *Instance
	err   error
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{
		entries:   make(map[InstanceConfig]*cacheEntry),
		scenarios: make(map[spec.ArtifactKey]*cacheEntry),
	}
}

// Instance returns the cached instance for cfg, building it on first use.
func (c *ArtifactCache) Instance(cfg InstanceConfig) (*Instance, error) {
	cfg = cfg.normalized()
	c.mu.Lock()
	if e, ok := c.entries[cfg]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.inst, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[cfg] = e
	c.misses++
	c.mu.Unlock()

	e.inst, e.err = buildInstance(cfg)
	close(e.ready)
	return e.inst, e.err
}

// Scenario returns the cached instance for a ScenarioSpec, building it on
// first use. The cache key is the canonical spec's artifact projection
// (topology + channel count + seed), so scenarios that differ only in
// channel dynamics, policy, decision parameters or noise seed share one
// build — hosting a Gilbert–Elliott replica next to a gaussian one over the
// same network pays the topology and extended-graph cost once. The build
// consumes exactly the streams the serving runtime has always used, so
// spec-built instances are bit-identical to the historical
// InstanceConfig{Stream: "serve"} path.
func (c *ArtifactCache) Scenario(sp spec.ScenarioSpec) (*Instance, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	key := canon.ArtifactKey()
	c.mu.Lock()
	if e, ok := c.scenarios[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.inst, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.scenarios[key] = e
	c.misses++
	c.mu.Unlock()

	e.inst, e.err = buildScenarioInstance(canon)
	close(e.ready)
	return e.inst, e.err
}

// buildScenarioInstance constructs the artifacts of one canonical spec and
// wraps them in an Instance so scenario consumers get the same memoized
// Optimal/Runtime surface as config-built instances.
func buildScenarioInstance(canon spec.ScenarioSpec) (*Instance, error) {
	arts, err := spec.BuildArtifacts(canon)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Net:   arts.Net,
		Ext:   arts.Ext,
		Means: arts.Means,
		cfg: InstanceConfig{
			N:                canon.Topology.N,
			M:                canon.Channel.M,
			Seed:             canon.Seed,
			TargetDegree:     canon.Topology.TargetDegree,
			RequireConnected: canon.Topology.RequireConnected,
			Stream:           "serve",
			MeansStream:      "means",
		},
	}, nil
}

// Stats returns a snapshot of the accounting counters.
func (c *ArtifactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries) + len(c.scenarios)}
}

// buildInstance constructs the artifacts from scratch. The stream
// derivations mirror the historical per-figure code exactly so cached runs
// are bit-identical with the pre-cache harness.
func buildInstance(cfg InstanceConfig) (*Instance, error) {
	var root *rng.Source
	if cfg.HasStreamN {
		root = rng.New(cfg.Seed).SplitN(cfg.Stream, cfg.StreamN)
	} else {
		root = rng.New(cfg.Seed).Split(cfg.Stream)
	}
	nw, err := topology.Random(topology.RandomConfig{
		N:                cfg.N,
		TargetDegree:     cfg.TargetDegree,
		RequireConnected: cfg.RequireConnected,
	}, root.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("engine: instance topology: %w", err)
	}
	if cfg.TopologyOnly {
		return &Instance{Net: nw, cfg: cfg}, nil
	}
	ext, err := extgraph.Build(nw.G, cfg.M)
	if err != nil {
		return nil, fmt.Errorf("engine: instance extended graph: %w", err)
	}
	ch, err := channel.NewModel(channel.Config{N: cfg.N, M: cfg.M}, root.Split(cfg.MeansStream))
	if err != nil {
		return nil, fmt.Errorf("engine: instance channel means: %w", err)
	}
	return &Instance{Net: nw, Ext: ext, Means: ch.Means(), cfg: cfg}, nil
}
