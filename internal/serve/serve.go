// Package serve is the online decision-serving runtime: a sharded registry
// of hosted network instances, each owned by an actor goroutine that runs
// the paper's Algorithm 2 loop — the shared core.Loop kernel, the same
// code path the offline simulator executes — as a request/response
// service. Clients can
// push observation batches and read the current channel assignment (the
// external-environment mode), or ask the server to run the
// decide→transmit→observe→update loop itself against the instance's hosted
// channel model (the self-simulation mode used by the load generator and
// the golden tests).
//
// Instances are described by spec.ScenarioSpec — the versioned, declarative
// scenario description shared with the simulator — so the runtime hosts
// every combination the spec expresses: random, grid and linear topologies;
// gaussian, Gilbert–Elliott and shifting channels (optionally under
// primary-user occupancy); and every learning policy. Instances whose specs
// share an artifact projection (topology, channel count, seed) share their
// expensive immutable artifacts — the topology, the extended conflict graph
// H, the catalog channel means, and the protocol runtime's hop-neighborhood
// precomputation — through an engine.ArtifactCache, so hosting 64 replicas
// of one network pays the construction cost once. All mutable state (policy
// statistics, channel processes, the current strategy) is confined to the
// actor goroutine: requests are serialized through the instance mailbox, so
// per-instance state needs no locks and a served instance's trajectory is
// bit-identical to the equivalent serial core.Scheme run over the same
// spec.
//
// Server exposes the registry over HTTP/JSON (cmd/banditd), and Client is
// the matching typed client (cmd/banditload, the smoke tests).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"multihopbandit/internal/core"
	"multihopbandit/internal/engine"
	"multihopbandit/internal/obs"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/spec"
)

// ErrClosed is returned by handle operations on a closed instance.
var ErrClosed = errors.New("serve: instance closed")

// ErrExists is returned (wrapped) by Create when an explicit instance ID is
// already taken.
var ErrExists = errors.New("serve: instance already exists")

// ErrExecutionUnsupported is returned (wrapped) by Create for specs whose
// decision.execution the serving runtime does not host. The distnet
// execution spawns one goroutine per extended-graph vertex plus transport
// machinery per instance — a research harness for the simulator and bench
// tools, not a serving configuration.
var ErrExecutionUnsupported = errors.New("serve: decision execution not supported by the serving runtime")

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// Shards is the number of registry shards (default GOMAXPROCS). Sharding
	// bounds lock contention on the instance table, not on instances
	// themselves (those are single-actor).
	Shards int
	// Cache is an optional shared artifact cache; nil creates a private one.
	Cache *engine.ArtifactCache
	// MailboxDepth is the per-instance mailbox buffer (default 128). A full
	// mailbox applies backpressure: senders block until the actor drains.
	MailboxDepth int
	// Persist configures the durability layer (see persist.go); the zero
	// value disables it.
	Persist PersistOptions
	// Trace, when non-nil, enables decision-path tracing: every hosted
	// instance's slot kernel publishes per-decision spans into this ring
	// (exported via /debug/trace) and feeds the banditd_decide_phase_ns
	// histograms. Nil keeps the decide hot path's zero-cost nil-check.
	Trace *obs.TraceRing
}

// Registry hosts decision-serving instances, sharded by instance ID. It is
// safe for concurrent use.
type Registry struct {
	shards  []*shard
	cache   *engine.ArtifactCache
	mailbox int
	metrics *Metrics
	persist PersistOptions
	nextID  atomic.Uint64

	obs    *obs.Registry
	trace  *obs.TraceRing
	phases phaseHists

	// arenaMu guards arenas: one shared protocol.DecideArena per cached
	// Runtime, so every instance deciding over the same topology borrows
	// decide scratch from one pool instead of warming its own. Entries
	// live as long as the registry (Runtimes are cache-canonical and few).
	arenaMu sync.Mutex
	arenas  map[*protocol.Runtime]*protocol.DecideArena
}

// arenaFor returns (creating once) the shared decide-scratch arena of rt.
func (r *Registry) arenaFor(rt *protocol.Runtime) *protocol.DecideArena {
	r.arenaMu.Lock()
	defer r.arenaMu.Unlock()
	a, ok := r.arenas[rt]
	if !ok {
		a = protocol.NewDecideArena()
		r.arenas[rt] = a
	}
	return a
}

type shard struct {
	mu        sync.RWMutex
	instances map[string]*Instance
}

// NewRegistry builds a Registry, applying defaults for zero-value fields.
func NewRegistry(cfg RegistryConfig) *Registry {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c := cfg.Cache
	if c == nil {
		c = engine.NewArtifactCache()
	}
	depth := cfg.MailboxDepth
	if depth <= 0 {
		depth = 128
	}
	r := &Registry{
		shards:  make([]*shard, n),
		cache:   c,
		mailbox: depth,
		metrics: newMetrics(n),
		persist: cfg.Persist,
		obs:     obs.NewRegistry(),
		trace:   cfg.Trace,
		arenas:  make(map[*protocol.Runtime]*protocol.DecideArena),
	}
	for i := range r.shards {
		r.shards[i] = &shard{instances: make(map[string]*Instance)}
	}
	r.registerObs()
	return r
}

// Shards returns the shard count.
func (r *Registry) Shards() int { return len(r.shards) }

// Cache returns the registry's shared artifact cache.
func (r *Registry) Cache() *engine.ArtifactCache { return r.cache }

// Metrics returns the registry's counters.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Obs returns the registry's metric families — the single exposition
// surface /metrics renders. Server registers its HTTP-layer families here;
// embedders may add their own (names must not collide).
func (r *Registry) Obs() *obs.Registry { return r.obs }

// Trace returns the decision-path trace ring, or nil when tracing is
// disabled.
func (r *Registry) Trace() *obs.TraceRing { return r.trace }

// shardFor maps an instance ID to its shard. The mapping depends only on
// the ID, so uniqueness checks within one shard suffice globally.
func (r *Registry) shardFor(id string) (int, *shard) {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	i := int(h.Sum32()) % len(r.shards)
	if i < 0 {
		i += len(r.shards)
	}
	return i, r.shards[i]
}

// ShardOf returns the registry shard index hosting id. The mapping (FNV-1a
// 32 of the ID, mod the shard count) is stable across processes, so remote
// clients that learn the shard count can route same-instance requests to a
// shard-affine connection — the binary data plane (internal/wire) does.
func (r *Registry) ShardOf(id string) int {
	i, _ := r.shardFor(id)
	return i
}

// InstanceConfig parameterizes one hosted instance: an optional ID plus the
// declarative scenario description. The spec is canonicalized on Create;
// instances whose canonical specs share an artifact projection (topology,
// channel count, seed) share topology, extended graph, catalog means and
// protocol runtime through the registry's cache.
//
// The JSON form is {"id": ..., "spec": {...}}.
type InstanceConfig struct {
	// ID names the instance; empty generates "inst-<n>".
	ID string `json:"id,omitempty"`
	// Spec is the scenario description (see internal/spec).
	Spec spec.ScenarioSpec `json:"spec"`
}

// UnmarshalJSON decodes strictly: an unknown field, at the top level or
// inside the spec, is an error. Both planes rely on it — the wire plane's
// create decodes with plain json.Unmarshal.
func (c *InstanceConfig) UnmarshalJSON(data []byte) error {
	type plain InstanceConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode((*plain)(c))
}

// NoiseStream derives the channel-process stream of an instance with the
// given noise seed. It forwards to spec.NoiseStream, the canonical
// definition; kept here so serving-side verifiers need only this package.
func NoiseStream(noiseSeed int64) *rng.Source {
	return spec.NoiseStream(noiseSeed)
}

// buildLoop constructs a scenario's slot kernel through the registry's
// artifact cache — the single construction path Create and Recover share —
// and returns it with its policy's snapshot interface.
func (r *Registry) buildLoop(canon spec.ScenarioSpec) (*core.Loop, policy.Snapshotter, error) {
	if canon.Decision.Execution != spec.ExecutionDecider {
		return nil, nil, fmt.Errorf("%w: %q", ErrExecutionUnsupported, canon.Decision.Execution)
	}
	inst, err := r.cache.Scenario(canon)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: instance artifacts: %w", err)
	}
	rt, err := inst.Runtime(canon.Decision.R, canon.Decision.D)
	if err != nil {
		return nil, nil, err
	}
	sampler, err := spec.BuildSampler(canon, inst.Means)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: instance channels: %w", err)
	}
	pol, err := spec.BuildPolicy(canon.Policy, inst.Ext.K(), inst.Ext.N,
		sampler.Means(), spec.PolicyStream(canon.NoiseSeed))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: instance policy: %w", err)
	}
	learner, ok := pol.(policy.Snapshotter)
	if !ok {
		return nil, nil, fmt.Errorf("serve: policy %q cannot snapshot its learner state", pol.Name())
	}
	// Instances over the same cached Runtime batch their boundary decides
	// through one shared scratch arena (per-decider caches stay private).
	dec := rt.NewDecider()
	dec.SetArena(r.arenaFor(rt))
	loop, err := core.NewLoop(core.LoopConfig{
		Ext:         inst.Ext,
		Runtime:     rt,
		Decider:     dec,
		Policy:      pol,
		Sampler:     sampler,
		UpdateEvery: canon.Decision.UpdateEvery,
	})
	if err != nil {
		return nil, nil, err
	}
	return loop, learner, nil
}

// register builds the handle and actor around a constructed loop, claims
// the ID on its shard, sets up persistence via mkPersist (nil = none; an
// error there unregisters and fails the call), and starts the actor.
func (r *Registry) register(id string, canon spec.ScenarioSpec, loop *core.Loop, learner policy.Snapshotter,
	mkPersist func(counters *ShardCounters) (*persister, error)) (*Instance, error) {
	si, sh := r.shardFor(id)
	stats := &instanceStats{}
	abrupt := &atomic.Bool{}
	if r.trace != nil {
		r.attachTrace(id, loop)
	}
	a := &actor{
		id:       id,
		counters: &r.metrics.Shards[si],
		stats:    stats,
		loop:     loop,
		learner:  learner,
		abrupt:   abrupt,
	}
	h := &Instance{
		id:      id,
		shard:   si,
		spec:    canon,
		k:       loop.Ext().K(),
		stats:   stats,
		abrupt:  abrupt,
		mailbox: make(chan request, r.mailbox),
		stop:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	sh.mu.Lock()
	if _, exists := sh.instances[id]; exists {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	sh.instances[id] = h
	sh.mu.Unlock()

	if mkPersist != nil {
		p, err := mkPersist(&r.metrics.Shards[si])
		if err != nil {
			sh.mu.Lock()
			delete(sh.instances, id)
			sh.mu.Unlock()
			return nil, err
		}
		a.persist = p
		h.dir = p.dir
	}
	a.publishStats() // recovered instances report their position immediately
	go a.run(h.mailbox, h.stop, h.closed)
	r.metrics.Shards[si].Created.Add(1)
	r.metrics.Shards[si].Instances.Add(1)
	return h, nil
}

// Create builds, registers and starts a hosted instance.
func (r *Registry) Create(cfg InstanceConfig) (*Instance, error) {
	canon, err := cfg.Spec.Canonical()
	if err != nil {
		return nil, fmt.Errorf("serve: scenario spec: %w", err)
	}
	id := cfg.ID
	if id == "" {
		id = fmt.Sprintf("inst-%d", r.nextID.Add(1))
	}
	loop, learner, err := r.buildLoop(canon)
	if err != nil {
		return nil, err
	}
	var mkPersist func(counters *ShardCounters) (*persister, error)
	if opts, on := r.effectivePersist(canon); on {
		// id is captured by reference: the retry loop below may regenerate
		// it before registration reaches the callback.
		mkPersist = func(counters *ShardCounters) (*persister, error) {
			return r.setupPersist(id, canon, opts, counters)
		}
	}

	// Register under the (possibly generated) ID. Auto-generated names
	// retry on collision with user-supplied ones (a client may have taken
	// "inst-<n>" explicitly); explicit names fail loudly. Only the cheap
	// handle construction sits inside the retry loop — the expensive
	// artifacts above are reused across retries.
	auto := cfg.ID == ""
	for {
		h, err := r.register(id, canon, loop, learner, mkPersist)
		if err != nil {
			if auto && errors.Is(err, ErrExists) {
				id = fmt.Sprintf("inst-%d", r.nextID.Add(1))
				continue
			}
			return nil, err
		}
		return h, nil
	}
}

// Get returns the hosted instance with the given ID.
func (r *Registry) Get(id string) (*Instance, bool) {
	_, sh := r.shardFor(id)
	sh.mu.RLock()
	h, ok := sh.instances[id]
	sh.mu.RUnlock()
	return h, ok
}

// List returns summaries of every hosted instance, sorted by ID. It reads
// the actors' published snapshots (InfoSnapshot) rather than their
// mailboxes, so a monitoring call never queues behind instance work — at
// the cost that a snapshot may trail the instance's in-flight request.
func (r *Registry) List() []InstanceInfo {
	var infos []InstanceInfo
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, h := range sh.instances {
			infos = append(infos, h.InfoSnapshot())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// handles returns every hosted instance handle, sorted by ID (the regret
// metrics walk it).
func (r *Registry) handles() []*Instance {
	var hs []*Instance
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, h := range sh.instances {
			hs = append(hs, h)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].id < hs[j].id })
	return hs
}

// Remove closes and unregisters an instance. Requests in flight (including
// queued fire-and-forget observations) fail with ErrClosed or are dropped.
// A persisted instance's on-disk state is deleted after its actor exits —
// removal is the end of the trajectory, not a restart point.
func (r *Registry) Remove(id string) error {
	si, sh := r.shardFor(id)
	sh.mu.Lock()
	h, ok := sh.instances[id]
	if ok {
		delete(sh.instances, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no instance %q", id)
	}
	h.close()
	r.metrics.Shards[si].Closed.Add(1)
	r.metrics.Shards[si].Instances.Add(-1)
	if h.dir != "" {
		// Wait for the actor so nothing re-creates files mid-delete.
		<-h.closed
		return os.RemoveAll(h.dir)
	}
	return nil
}

// Close closes every hosted instance and waits for the actors to exit, so
// persisted instances land their final snapshots before Close returns —
// this is the graceful half of a rolling deploy (the data directories
// survive for the next process's Recover).
func (r *Registry) Close() {
	r.closeAll(false)
}

// CloseAbrupt closes every instance without final snapshots or syncs —
// an in-process stand-in for SIGKILL. What recovery then sees is exactly
// the crash surface: the durable snapshot plus the appended log tail. The
// crash-recovery golden tests and the WAL benchmark are its consumers.
func (r *Registry) CloseAbrupt() {
	r.closeAll(true)
}

func (r *Registry) closeAll(abrupt bool) {
	var handles []*Instance
	for si, sh := range r.shards {
		sh.mu.Lock()
		for id, h := range sh.instances {
			if abrupt {
				h.abrupt.Store(true)
			}
			h.close()
			delete(sh.instances, id)
			r.metrics.Shards[si].Closed.Add(1)
			r.metrics.Shards[si].Instances.Add(-1)
			handles = append(handles, h)
		}
		sh.mu.Unlock()
	}
	for _, h := range handles {
		<-h.closed
	}
}
