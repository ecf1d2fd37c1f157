// Package spec defines ScenarioSpec, the versioned, JSON-serializable
// description of one channel-access scenario — the single construction
// surface shared by the simulator (internal/sim), the experiment engine's
// artifact cache (internal/engine), and the online serving runtime
// (internal/serve). A spec composes four orthogonal parts:
//
//   - TopologySpec: how the conflict graph arises (random unit-disk
//     placement, a grid, or the paper's §IV-D worst-case line),
//   - ChannelSpec: the reward process (the paper's i.i.d. Gaussian catalog,
//     the restless Gilbert–Elliott chains, or adversarially shifting means),
//     optionally wrapped with per-channel primary-user occupancy,
//   - PolicySpec: the learning rule (the paper's index policy and its
//     baselines), and
//   - DecisionSpec: the distributed decision parameters (ball parameter r,
//     mini-round cap D, update period y, the time model).
//
// Fill canonicalizes a spec in place — defaults applied, version pinned —
// and validates it strictly: unknown kinds, out-of-range values, and fields
// that do not apply to the selected kind are rejected with typed errors
// (KindError, FieldError, VersionError). Parse additionally rejects unknown
// JSON fields. Two specs describe the same scenario exactly when their
// canonical forms are equal (specs are comparable Go values), which is what
// lets the engine's artifact cache key shared artifacts by spec.
//
// Like every Config.fill in this repository, v1 uses the zero value to mean
// "use the default" on numeric fields (sigma, target_degree, p_gb, p_bg,
// bad_fraction, epsilon, gamma, p_busy, p_idle, period): an explicit 0 in a
// spec file canonicalizes to the documented default rather than to zero, so
// v1 cannot express, e.g., a Gilbert–Elliott chain that never degrades
// (p_gb exactly 0) or a pure-greedy ε=0 policy. Scenarios needing an exact
// zero must wait for a schema revision; do not change this convention
// within v1 — it would silently re-read existing spec files.
//
// Canonicalization is part of the repository's bit-identity contract: the
// canonical spec alone determines every random stream the builders consume
// (see build.go), so equal canonical specs always produce bit-identical
// trajectories.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Version is the ScenarioSpec schema version this package implements.
const Version = 1

// Topology kinds.
const (
	TopologyRandom = "random"
	TopologyGrid   = "grid"
	TopologyLinear = "linear"
)

// Channel kinds.
const (
	ChannelGaussian       = "gaussian"
	ChannelGilbertElliott = "gilbert-elliott"
	ChannelShifting       = "shifting"
)

// Policy kinds.
const (
	PolicyZhouLi           = "zhou-li"
	PolicyLLR              = "llr"
	PolicyCUCB             = "cucb"
	PolicyOracle           = "oracle"
	PolicyDiscountedZhouLi = "discounted-zhou-li"
	PolicyEpsGreedy        = "eps-greedy"
)

// Timing kinds.
const (
	TimingPaper = "paper"
)

// Decision execution kinds: the lock-step in-process decider, or the
// concurrent per-vertex agent runtime (internal/distnet).
const (
	ExecutionDecider = "decider"
	ExecutionDistnet = "distnet"
)

// Distnet transport kinds.
const (
	TransportChan = "chan"
	TransportTCP  = "tcp"
)

// Fsync policies of PersistSpec. They mirror internal/wal's SyncPolicy
// values; spec stays dependency-free and the serving runtime converts.
const (
	FsyncAlways = "always"
	FsyncBatch  = "batch"
	FsyncNone   = "none"
)

// topologyKinds, channelKinds, policyKinds and timingKinds list the known
// values for KindError reporting.
var (
	topologyKinds = []string{TopologyRandom, TopologyGrid, TopologyLinear}
	channelKinds  = []string{ChannelGaussian, ChannelGilbertElliott, ChannelShifting}
	policyKinds   = []string{
		PolicyZhouLi, PolicyLLR, PolicyCUCB, PolicyOracle,
		PolicyDiscountedZhouLi, PolicyEpsGreedy,
	}
	timingKinds    = []string{TimingPaper}
	fsyncKinds     = []string{FsyncAlways, FsyncBatch, FsyncNone}
	executionKinds = []string{ExecutionDecider, ExecutionDistnet}
	transportKinds = []string{TransportChan, TransportTCP}
)

// VersionError reports a spec whose version field names a schema this
// package does not implement.
type VersionError struct {
	// Got is the rejected version value.
	Got int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("spec: unsupported version %d (want %d)", e.Got, Version)
}

// KindError reports an unknown kind in one of the spec's enum fields.
type KindError struct {
	// Field is the spec field path, e.g. "channel.kind".
	Field string
	// Kind is the rejected value.
	Kind string
	// Allowed lists the known kinds.
	Allowed []string
}

func (e *KindError) Error() string {
	return fmt.Sprintf("spec: unknown %s %q (want %s)", e.Field, e.Kind, strings.Join(e.Allowed, ", "))
}

// FieldError reports an invalid field value, a field that does not apply to
// the selected kind, or an unknown JSON field.
type FieldError struct {
	// Field is the spec field path, e.g. "channel.period".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("spec: %s: %s", e.Field, e.Reason)
}

// TopologySpec describes how the network's conflict graph is constructed.
// Exactly the fields that apply to the selected kind may be set; the rest
// must stay zero (Fill rejects strays, so a canonical spec carries no dead
// configuration).
type TopologySpec struct {
	// Kind selects the layout: "random" (default), "grid" or "linear".
	Kind string `json:"kind,omitempty"`
	// N is the node count. Required for random and linear; for grid it is
	// derived as Rows·Cols (and must match when explicitly set).
	N int `json:"n,omitempty"`
	// TargetDegree sizes the random deployment square (random only;
	// default 6, a sparse multi-hop network).
	TargetDegree float64 `json:"target_degree,omitempty"`
	// RequireConnected retries random placement until the conflict graph
	// connects (random only).
	RequireConnected bool `json:"require_connected,omitempty"`
	// Rows and Cols are the grid dimensions (grid only; required).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Spacing is the distance between adjacent nodes (grid default 1.5,
	// linear default 1).
	Spacing float64 `json:"spacing,omitempty"`
	// Radius is the conflict radius (grid default 2, linear default 1.5).
	Radius float64 `json:"radius,omitempty"`
}

func (t *TopologySpec) fill() error {
	if t.Kind == "" {
		t.Kind = TopologyRandom
	}
	switch t.Kind {
	case TopologyRandom:
		if t.N <= 0 {
			return &FieldError{Field: "topology.n", Reason: fmt.Sprintf("must be positive, got %d", t.N)}
		}
		if t.TargetDegree < 0 {
			return &FieldError{Field: "topology.target_degree", Reason: fmt.Sprintf("must be non-negative, got %v", t.TargetDegree)}
		}
		if t.TargetDegree == 0 {
			t.TargetDegree = 6
		}
		if t.Rows != 0 || t.Cols != 0 {
			return &FieldError{Field: "topology.rows/cols", Reason: "only apply to kind " + TopologyGrid}
		}
		if t.Spacing != 0 || t.Radius != 0 {
			return &FieldError{Field: "topology.spacing/radius", Reason: "do not apply to kind " + TopologyRandom}
		}
	case TopologyGrid:
		if t.Rows <= 0 || t.Cols <= 0 {
			return &FieldError{Field: "topology.rows/cols", Reason: fmt.Sprintf("must be positive, got %dx%d", t.Rows, t.Cols)}
		}
		if t.N == 0 {
			t.N = t.Rows * t.Cols
		}
		if t.N != t.Rows*t.Cols {
			return &FieldError{Field: "topology.n", Reason: fmt.Sprintf("%d does not match rows·cols = %d", t.N, t.Rows*t.Cols)}
		}
		if err := t.fillGeometry(1.5, 2); err != nil {
			return err
		}
		if t.TargetDegree != 0 || t.RequireConnected {
			return &FieldError{Field: "topology.target_degree/require_connected", Reason: "only apply to kind " + TopologyRandom}
		}
	case TopologyLinear:
		if t.N <= 0 {
			return &FieldError{Field: "topology.n", Reason: fmt.Sprintf("must be positive, got %d", t.N)}
		}
		if t.Rows != 0 || t.Cols != 0 {
			return &FieldError{Field: "topology.rows/cols", Reason: "only apply to kind " + TopologyGrid}
		}
		if err := t.fillGeometry(1, 1.5); err != nil {
			return err
		}
		if t.TargetDegree != 0 || t.RequireConnected {
			return &FieldError{Field: "topology.target_degree/require_connected", Reason: "only apply to kind " + TopologyRandom}
		}
	default:
		return &KindError{Field: "topology.kind", Kind: t.Kind, Allowed: topologyKinds}
	}
	return nil
}

func (t *TopologySpec) fillGeometry(defSpacing, defRadius float64) error {
	if t.Spacing < 0 {
		return &FieldError{Field: "topology.spacing", Reason: fmt.Sprintf("must be positive, got %v", t.Spacing)}
	}
	if t.Radius < 0 {
		return &FieldError{Field: "topology.radius", Reason: fmt.Sprintf("must be positive, got %v", t.Radius)}
	}
	if t.Spacing == 0 {
		t.Spacing = defSpacing
	}
	if t.Radius == 0 {
		t.Radius = defRadius
	}
	return nil
}

// PrimarySpec wraps the channel process with per-channel primary-user
// occupancy: while a channel's primary user is active, every secondary
// transmission on it yields zero reward (the cognitive-radio mechanism of
// the paper's introduction).
type PrimarySpec struct {
	// Enabled switches the wrapper on.
	Enabled bool `json:"enabled,omitempty"`
	// PBusy is the per-slot idle→busy probability (default 0.05).
	PBusy float64 `json:"p_busy,omitempty"`
	// PIdle is the per-slot busy→idle probability (default 0.2).
	PIdle float64 `json:"p_idle,omitempty"`
}

// ChannelSpec describes the reward process the learners face.
type ChannelSpec struct {
	// Kind selects the process family: "gaussian" (default, the paper's
	// i.i.d. model), "gilbert-elliott" or "shifting".
	Kind string `json:"kind,omitempty"`
	// M is the number of channels per node. Required.
	M int `json:"m"`
	// Sigma is the per-draw observation noise (default 0.05; 0.02 for
	// gilbert-elliott, matching the model's own default).
	Sigma float64 `json:"sigma,omitempty"`
	// PGB and PBG are the Gilbert–Elliott good→bad and bad→good per-slot
	// transition probabilities (defaults 0.1 and 0.3).
	PGB float64 `json:"p_gb,omitempty"`
	PBG float64 `json:"p_bg,omitempty"`
	// BadFraction scales the bad-state rate relative to the good rate
	// (gilbert-elliott only, default 0.2).
	BadFraction float64 `json:"bad_fraction,omitempty"`
	// Period is the number of slots between mean permutations (shifting
	// only, default 200).
	Period int `json:"period,omitempty"`
	// Primary optionally wraps the process with primary-user occupancy.
	Primary PrimarySpec `json:"primary,omitempty"`
}

func (c *ChannelSpec) fill() error {
	if c.Kind == "" {
		c.Kind = ChannelGaussian
	}
	if c.M <= 0 {
		return &FieldError{Field: "channel.m", Reason: fmt.Sprintf("must be positive, got %d", c.M)}
	}
	if c.Sigma < 0 {
		return &FieldError{Field: "channel.sigma", Reason: fmt.Sprintf("must be non-negative, got %v", c.Sigma)}
	}
	switch c.Kind {
	case ChannelGaussian:
		if c.Sigma == 0 {
			c.Sigma = 0.05
		}
		if c.PGB != 0 || c.PBG != 0 || c.BadFraction != 0 {
			return &FieldError{Field: "channel.p_gb/p_bg/bad_fraction", Reason: "only apply to kind " + ChannelGilbertElliott}
		}
		if c.Period != 0 {
			return &FieldError{Field: "channel.period", Reason: "only applies to kind " + ChannelShifting}
		}
	case ChannelGilbertElliott:
		if c.Sigma == 0 {
			c.Sigma = 0.02
		}
		if c.PGB == 0 {
			c.PGB = 0.1
		}
		if c.PBG == 0 {
			c.PBG = 0.3
		}
		if c.PGB < 0 || c.PGB > 1 || c.PBG < 0 || c.PBG > 1 {
			return &FieldError{Field: "channel.p_gb/p_bg", Reason: fmt.Sprintf("must be in [0,1], got %v/%v", c.PGB, c.PBG)}
		}
		if c.BadFraction == 0 {
			c.BadFraction = 0.2
		}
		if c.BadFraction < 0 || c.BadFraction > 1 {
			return &FieldError{Field: "channel.bad_fraction", Reason: fmt.Sprintf("must be in [0,1], got %v", c.BadFraction)}
		}
		if c.Period != 0 {
			return &FieldError{Field: "channel.period", Reason: "only applies to kind " + ChannelShifting}
		}
	case ChannelShifting:
		if c.Sigma == 0 {
			c.Sigma = 0.05
		}
		if c.Period < 0 {
			return &FieldError{Field: "channel.period", Reason: fmt.Sprintf("must be positive, got %d", c.Period)}
		}
		if c.Period == 0 {
			c.Period = 200
		}
		if c.PGB != 0 || c.PBG != 0 || c.BadFraction != 0 {
			return &FieldError{Field: "channel.p_gb/p_bg/bad_fraction", Reason: "only apply to kind " + ChannelGilbertElliott}
		}
	default:
		return &KindError{Field: "channel.kind", Kind: c.Kind, Allowed: channelKinds}
	}
	if !c.Primary.Enabled {
		if c.Primary.PBusy != 0 || c.Primary.PIdle != 0 {
			return &FieldError{Field: "channel.primary", Reason: "p_busy/p_idle set but enabled is false"}
		}
		return nil
	}
	if c.Primary.PBusy == 0 {
		c.Primary.PBusy = 0.05
	}
	if c.Primary.PIdle == 0 {
		c.Primary.PIdle = 0.2
	}
	if c.Primary.PBusy < 0 || c.Primary.PBusy > 1 || c.Primary.PIdle < 0 || c.Primary.PIdle > 1 {
		return &FieldError{Field: "channel.primary", Reason: fmt.Sprintf("p_busy/p_idle must be in [0,1], got %v/%v", c.Primary.PBusy, c.Primary.PIdle)}
	}
	return nil
}

// PolicySpec selects the learning rule.
type PolicySpec struct {
	// Kind selects the rule: "zhou-li" (default, the paper's equation (3)),
	// "llr", "cucb", "oracle", "discounted-zhou-li" or "eps-greedy".
	Kind string `json:"kind,omitempty"`
	// Gamma is the discount factor of "discounted-zhou-li" (default 0.99).
	Gamma float64 `json:"gamma,omitempty"`
	// Epsilon is the exploration probability of "eps-greedy" (default 0.1).
	Epsilon float64 `json:"epsilon,omitempty"`
}

func (p *PolicySpec) fill() error {
	if p.Kind == "" {
		p.Kind = PolicyZhouLi
	}
	known := false
	for _, k := range policyKinds {
		if p.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return &KindError{Field: "policy.kind", Kind: p.Kind, Allowed: policyKinds}
	}
	if p.Kind == PolicyDiscountedZhouLi {
		if p.Gamma == 0 {
			p.Gamma = 0.99
		}
		if p.Gamma <= 0 || p.Gamma > 1 {
			return &FieldError{Field: "policy.gamma", Reason: fmt.Sprintf("must be in (0,1], got %v", p.Gamma)}
		}
	} else if p.Gamma != 0 {
		return &FieldError{Field: "policy.gamma", Reason: "only applies to kind " + PolicyDiscountedZhouLi}
	}
	if p.Kind == PolicyEpsGreedy {
		if p.Epsilon == 0 {
			p.Epsilon = 0.1
		}
		if p.Epsilon < 0 || p.Epsilon > 1 {
			return &FieldError{Field: "policy.epsilon", Reason: fmt.Sprintf("must be in [0,1], got %v", p.Epsilon)}
		}
	} else if p.Epsilon != 0 {
		return &FieldError{Field: "policy.epsilon", Reason: "only applies to kind " + PolicyEpsGreedy}
	}
	return nil
}

// DecisionSpec configures the distributed strategy decision and its cadence.
type DecisionSpec struct {
	// R is the ball parameter r of the distributed PTAS (default 2).
	R int `json:"r,omitempty"`
	// D caps mini-rounds per strategy decision (default 4).
	D int `json:"d,omitempty"`
	// UpdateEvery is the update period y in slots (default 1).
	UpdateEvery int `json:"update_every,omitempty"`
	// Timing names the round time model; "paper" (the Table II parameters)
	// is the only v1 value.
	Timing string `json:"timing,omitempty"`
	// Execution selects how decisions run: "decider" (default; lock-step
	// in-process) or "distnet" (one concurrent agent per extended-graph
	// vertex exchanging frames over a transport). Execution is operational,
	// not scenario identity — it never enters the ArtifactKey, and with no
	// faults configured "distnet" produces winner sets bit-identical to
	// "decider".
	Execution string `json:"execution,omitempty"`
	// Transport selects the distnet frame carrier: "chan" (default;
	// in-process) or "tcp" (real loopback sockets). Only valid with
	// execution "distnet".
	Transport string `json:"transport,omitempty"`
	// Faults configures distnet fault injection. Only valid with execution
	// "distnet"; the zero value injects nothing.
	Faults FaultsSpec `json:"faults,omitempty"`
}

// FaultsSpec configures the distnet fault layer. It is a plain comparable
// value mirroring distnet.Faults, with durations in microseconds so specs
// stay integer-friendly JSON.
type FaultsSpec struct {
	// Seed keys every fault draw; 0 means "use the scenario's NoiseSeed".
	Seed int64 `json:"seed,omitempty"`
	// Loss is the independent per-copy loss probability in [0,1).
	Loss float64 `json:"loss,omitempty"`
	// BurstEnter and BurstExit drive the per-link Gilbert loss chain;
	// BurstEnter 0 disables it, and a nonzero BurstEnter requires a
	// nonzero BurstExit.
	BurstEnter float64 `json:"burst_enter,omitempty"`
	BurstExit  float64 `json:"burst_exit,omitempty"`
	// LatencyUs is the fixed one-way copy delay in microseconds.
	LatencyUs int64 `json:"latency_us,omitempty"`
	// JitterUs adds an identity-keyed uniform [0,JitterUs) delay.
	JitterUs int64 `json:"jitter_us,omitempty"`
	// Reorder is the probability a copy is held back behind later traffic.
	Reorder float64 `json:"reorder,omitempty"`
}

// Active reports whether any fault is configured.
func (f FaultsSpec) Active() bool {
	return f.Loss > 0 || f.BurstEnter > 0 || f.LatencyUs > 0 || f.JitterUs > 0 || f.Reorder > 0
}

func (f *FaultsSpec) fill() error {
	if f.Loss < 0 || f.Loss >= 1 {
		return &FieldError{Field: "decision.faults.loss", Reason: fmt.Sprintf("must be in [0,1), got %v", f.Loss)}
	}
	if f.BurstEnter < 0 || f.BurstEnter >= 1 {
		return &FieldError{Field: "decision.faults.burst_enter", Reason: fmt.Sprintf("must be in [0,1), got %v", f.BurstEnter)}
	}
	if f.BurstExit < 0 || f.BurstExit > 1 {
		return &FieldError{Field: "decision.faults.burst_exit", Reason: fmt.Sprintf("must be in [0,1], got %v", f.BurstExit)}
	}
	if f.BurstEnter > 0 && f.BurstExit == 0 {
		return &FieldError{Field: "decision.faults.burst_exit", Reason: "must be positive when burst_enter is set (bursts would never end)"}
	}
	if f.BurstEnter == 0 && f.BurstExit != 0 {
		return &FieldError{Field: "decision.faults.burst_exit", Reason: "only applies when burst_enter is set"}
	}
	if f.LatencyUs < 0 {
		return &FieldError{Field: "decision.faults.latency_us", Reason: fmt.Sprintf("must be >= 0, got %d", f.LatencyUs)}
	}
	if f.JitterUs < 0 {
		return &FieldError{Field: "decision.faults.jitter_us", Reason: fmt.Sprintf("must be >= 0, got %d", f.JitterUs)}
	}
	if f.Reorder < 0 || f.Reorder >= 1 {
		return &FieldError{Field: "decision.faults.reorder", Reason: fmt.Sprintf("must be in [0,1), got %v", f.Reorder)}
	}
	return nil
}

func (d *DecisionSpec) fill() error {
	if d.R == 0 {
		d.R = 2
	}
	if d.R < 1 {
		return &FieldError{Field: "decision.r", Reason: fmt.Sprintf("must be >= 1, got %d", d.R)}
	}
	if d.D == 0 {
		d.D = 4
	}
	if d.D < 0 {
		return &FieldError{Field: "decision.d", Reason: fmt.Sprintf("must be >= 0, got %d", d.D)}
	}
	if d.UpdateEvery == 0 {
		d.UpdateEvery = 1
	}
	if d.UpdateEvery < 1 {
		return &FieldError{Field: "decision.update_every", Reason: fmt.Sprintf("must be >= 1, got %d", d.UpdateEvery)}
	}
	if d.Timing == "" {
		d.Timing = TimingPaper
	}
	if d.Timing != TimingPaper {
		return &KindError{Field: "decision.timing", Kind: d.Timing, Allowed: timingKinds}
	}
	if d.Execution == "" {
		d.Execution = ExecutionDecider
	}
	switch d.Execution {
	case ExecutionDecider, ExecutionDistnet:
	default:
		return &KindError{Field: "decision.execution", Kind: d.Execution, Allowed: executionKinds}
	}
	if d.Execution == ExecutionDecider {
		if d.Transport != "" {
			return &FieldError{Field: "decision.transport", Reason: "only applies to execution " + ExecutionDistnet}
		}
		if d.Faults != (FaultsSpec{}) {
			return &FieldError{Field: "decision.faults", Reason: "only applies to execution " + ExecutionDistnet}
		}
		return nil
	}
	if d.Transport == "" {
		d.Transport = TransportChan
	}
	switch d.Transport {
	case TransportChan, TransportTCP:
	default:
		return &KindError{Field: "decision.transport", Kind: d.Transport, Allowed: transportKinds}
	}
	return d.Faults.fill()
}

// PersistSpec opts one instance into the serving runtime's durability layer
// (internal/wal): observations are appended to a per-instance write-ahead
// log and learner snapshots are taken periodically, so a banditd restart
// recovers the instance bit-identically via snapshot + log-tail replay.
//
// Persist is operational configuration, not scenario identity: it changes
// no random stream and no trajectory, it does not contribute to the
// ArtifactKey, and it is silently inert when the server runs without a data
// directory.
type PersistSpec struct {
	// Enabled switches persistence on for this instance. A banditd started
	// with -persist-all persists every instance regardless.
	Enabled bool `json:"enabled,omitempty"`
	// SnapshotEvery is the snapshot cadence in applied slots (default 512).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Fsync names the WAL sync policy: "always", "batch" (default; sync once
	// per applied request batch) or "none".
	Fsync string `json:"fsync,omitempty"`
	// KeepLog retains superseded WAL segments after a snapshot makes them
	// redundant (for record/replay); by default they are garbage-collected.
	// A restore deletes every segment regardless, so the kept history
	// restarts at the restored slot.
	KeepLog bool `json:"keep_log,omitempty"`
}

func (p *PersistSpec) fill() error {
	if !p.Enabled {
		if p.SnapshotEvery != 0 || p.Fsync != "" || p.KeepLog {
			return &FieldError{Field: "persist", Reason: "snapshot_every/fsync/keep_log set but enabled is false"}
		}
		return nil
	}
	if p.SnapshotEvery < 0 {
		return &FieldError{Field: "persist.snapshot_every", Reason: fmt.Sprintf("must be positive, got %d", p.SnapshotEvery)}
	}
	if p.SnapshotEvery == 0 {
		p.SnapshotEvery = 512
	}
	if p.Fsync == "" {
		p.Fsync = FsyncBatch
	}
	switch p.Fsync {
	case FsyncAlways, FsyncBatch, FsyncNone:
	default:
		return &KindError{Field: "persist.fsync", Kind: p.Fsync, Allowed: fsyncKinds}
	}
	return nil
}

// ScenarioSpec is the versioned description of one scenario. It is a plain
// comparable value: two canonical specs are equal with == exactly when they
// describe the same scenario.
type ScenarioSpec struct {
	// V is the schema version; 0 canonicalizes to Version, anything else
	// but Version is rejected.
	V int `json:"v"`
	// Seed draws the scenario artifacts: topology placement and the true
	// channel means.
	Seed int64 `json:"seed"`
	// NoiseSeed drives the per-instance stochastic streams (channel noise,
	// dynamic channel state, randomized policies); 0 means "use Seed". Give
	// replicas sharing one artifact Seed distinct NoiseSeeds to get
	// distinct reward trajectories.
	NoiseSeed int64 `json:"noise_seed,omitempty"`
	// Topology, Channel, Policy and Decision are the four scenario parts.
	Topology TopologySpec `json:"topology"`
	Channel  ChannelSpec  `json:"channel"`
	Policy   PolicySpec   `json:"policy"`
	Decision DecisionSpec `json:"decision"`
	// Persist opts the instance into the serving runtime's durability layer.
	// Operational only: it affects no stream, trajectory, or artifact key.
	Persist PersistSpec `json:"persist,omitempty"`
}

// Fill canonicalizes the spec in place — version pinned, defaults applied —
// and validates it strictly. Unknown kinds, out-of-range values, and fields
// that do not apply to the selected kinds are rejected with typed errors.
// Fill is idempotent: filling an already-canonical spec is a no-op.
func (s *ScenarioSpec) Fill() error {
	if s.V == 0 {
		s.V = Version
	}
	if s.V != Version {
		return &VersionError{Got: s.V}
	}
	if s.NoiseSeed == 0 {
		s.NoiseSeed = s.Seed
	}
	if err := s.Topology.fill(); err != nil {
		return err
	}
	if err := s.Channel.fill(); err != nil {
		return err
	}
	if err := s.Policy.fill(); err != nil {
		return err
	}
	if err := s.Decision.fill(); err != nil {
		return err
	}
	return s.Persist.fill()
}

// Canonical returns the canonical form of the spec without mutating the
// receiver.
func (s ScenarioSpec) Canonical() (ScenarioSpec, error) {
	c := s
	if err := c.Fill(); err != nil {
		return ScenarioSpec{}, err
	}
	return c, nil
}

// ArtifactKey is the projection of a canonical spec that determines the
// shareable immutable artifacts — the network, the extended conflict graph,
// and the catalog channel means. Specs that differ only in channel dynamics,
// policy, decision parameters or noise seed map to the same key, which is
// how the engine's cache shares artifacts across all channel kinds.
type ArtifactKey struct {
	Topology TopologySpec
	M        int
	Seed     int64
}

// ArtifactKey returns the artifact projection. Call it on a canonical spec;
// non-canonical specs of the same scenario may yield distinct keys.
func (s ScenarioSpec) ArtifactKey() ArtifactKey {
	return ArtifactKey{Topology: s.Topology, M: s.Channel.M, Seed: s.Seed}
}

// Parse strictly decodes a JSON scenario spec — unknown fields are rejected
// with a FieldError — and returns its canonical form.
func Parse(data []byte) (ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		if name, ok := unknownFieldName(err); ok {
			return ScenarioSpec{}, &FieldError{Field: name, Reason: "unknown field"}
		}
		return ScenarioSpec{}, fmt.Errorf("spec: decode: %w", err)
	}
	return s.Canonical()
}

// ParseFile reads and parses a spec file.
func ParseFile(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: read %s: %w", path, err)
	}
	s, err := Parse(data)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: %s: %w", path, err)
	}
	return s, nil
}

// unknownFieldName extracts the field name from encoding/json's unknown-field
// error so Parse can surface it as a typed FieldError.
func unknownFieldName(err error) (string, bool) {
	const marker = `unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	j := strings.Index(rest, `"`)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
