package serve

import (
	"strconv"
	"sync/atomic"

	"multihopbandit/internal/core"
	"multihopbandit/internal/obs"
	"multihopbandit/internal/protocol"
)

// ShardCounters are the per-shard serving counters, updated lock-free by
// the actors hosted on the shard.
type ShardCounters struct {
	// Instances is the number of currently hosted instances.
	Instances atomic.Int64
	// Created and Closed count instance lifecycle events.
	Created atomic.Int64
	Closed  atomic.Int64
	// Slots counts served slots (self-simulation steps plus applied
	// observation rounds) — one served decision per slot.
	Slots atomic.Int64
	// Decisions counts strategy decisions served (update boundaries),
	// whether by a full protocol run or a weight-epoch skip.
	Decisions atomic.Int64
	// FullDecides and EpochSkips split Decisions by how the decision plane
	// served them: a full WB + mini-round protocol run vs the cached
	// previous result under an unchanged weight vector.
	FullDecides atomic.Int64
	EpochSkips  atomic.Int64
	// LeaderSkips, SensitivitySkips, MemoStructHits and MemoMisses classify
	// the per-leader cache lookups of full decides (one per LocalLeader per
	// mini-round): split replays under exactly-equal candidate weights,
	// split replays under drift bounded by the anchor's slack certificate,
	// structure-only reuses (subgraph + clique partition cached, weighted
	// search re-run), and full rebuilds. The first two run no solver at
	// all; struct hits + misses are the leader re-solves.
	LeaderSkips      atomic.Int64
	SensitivitySkips atomic.Int64
	MemoStructHits   atomic.Int64
	MemoMisses       atomic.Int64
	// BudgetStops counts the leader re-solves whose branch and bound
	// stopped at its node budget and applied an incumbent or greedy set.
	BudgetStops atomic.Int64
	// Protocol communication totals of the full decides hosted on the
	// shard (the per-decision protocol.Stats quantities, summed).
	MiniRounds         atomic.Int64
	WeightBroadcasts   atomic.Int64
	LeaderDeclarations atomic.Int64
	LocalBroadcasts    atomic.Int64
	MiniTimeslots      atomic.Int64
	// Observations counts applied external observation batches.
	Observations atomic.Int64
	// ObservationErrors counts failed fire-and-forget observation batches
	// (the only place their errors surface).
	ObservationErrors atomic.Int64
	// WALAppends and WALAppendBytes count write-ahead log records appended
	// by the shard's persisted instances, and their framed bytes.
	WALAppends     atomic.Int64
	WALAppendBytes atomic.Int64
	// WALFsyncs counts real fsyncs (no-op syncs on a clean log not included).
	WALFsyncs atomic.Int64
	// WALSnapshots counts published snapshot files.
	WALSnapshots atomic.Int64
	// WALErrors counts durability failures. Persistence is fail-open: a
	// failed instance keeps serving with appends stopped, and this counter
	// is where the damage shows (alert on it — see OPERATIONS.md).
	WALErrors atomic.Int64
	// Recovered counts instances rebuilt by Registry.Recover.
	Recovered atomic.Int64
}

// Metrics aggregates the registry's per-shard counters.
type Metrics struct {
	// Shards holds one counter block per registry shard.
	Shards []ShardCounters
}

func newMetrics(shards int) *Metrics {
	return &Metrics{Shards: make([]ShardCounters, shards)}
}

// TotalSlots sums the served-slot counters across shards.
func (m *Metrics) TotalSlots() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].Slots.Load()
	}
	return t
}

// TotalDecisions sums the decision counters across shards.
func (m *Metrics) TotalDecisions() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].Decisions.Load()
	}
	return t
}

// TotalEpochSkips sums the weight-epoch skip counters across shards.
func (m *Metrics) TotalEpochSkips() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].EpochSkips.Load()
	}
	return t
}

// TotalLeaderSkips sums the exact-replay leader skip counters across shards.
func (m *Metrics) TotalLeaderSkips() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].LeaderSkips.Load()
	}
	return t
}

// TotalSensitivitySkips sums the drift-bounded replay counters across shards.
func (m *Metrics) TotalSensitivitySkips() int64 {
	var t int64
	for i := range m.Shards {
		t += m.Shards[i].SensitivitySkips.Load()
	}
	return t
}

// Histogram is the serving layer's lock-free log₂-bucketed histogram —
// obs.Histogram recording nanoseconds. The obs version replaced the old
// 24-bucket microsecond histogram whose Quantile returned the bucket's
// upper bound (overstating every quantile by up to 2×); quantiles now
// interpolate inside the bucket and are returned as float64 nanoseconds.
type Histogram = obs.Histogram

// phaseHists are the decision-path phase histograms behind
// banditd_decide_phase_ns, fed by the per-instance trace hook. The first
// five observe full decides only (so total is the denominator of the span
// coverage ratio); epochSkip records the short-circuit boundaries.
type phaseHists struct {
	broadcast, election, localMWIS, finalize, total, epochSkip Histogram
}

// shardFamily maps one ShardCounters field onto its metric family.
type shardFamily struct {
	name, help string
	kind       obs.Kind
	get        func(*ShardCounters) *atomic.Int64
}

var shardFamilies = []shardFamily{
	{"banditd_instances", "Currently hosted instances.", obs.KindGauge,
		func(c *ShardCounters) *atomic.Int64 { return &c.Instances }},
	{"banditd_instances_created_total", "Instances created.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Created }},
	{"banditd_instances_closed_total", "Instances closed or removed.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Closed }},
	{"banditd_slots_served_total", "Served slots (self-simulation steps plus applied observation rounds).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Slots }},
	{"banditd_decisions_total", "Strategy decisions served (update boundaries).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Decisions }},
	{"banditd_decide_full_total", "Decisions served by a full WB + mini-round protocol run.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.FullDecides }},
	{"banditd_decide_epoch_skips_total", "Decisions served from the cached result under an unchanged weight epoch.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.EpochSkips }},
	{"banditd_decide_leader_skips_total", "Per-leader lookups replayed under exactly-equal candidate weights (no solver ran).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.LeaderSkips }},
	{"banditd_decide_leader_sensitivity_skips_total", "Per-leader lookups replayed under drift bounded by the slack certificate (no solver ran).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.SensitivitySkips }},
	{"banditd_decide_memo_struct_hits_total", "Per-leader lookups reusing cached subgraph structure (weighted search re-run).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.MemoStructHits }},
	{"banditd_decide_memo_misses_total", "Per-leader lookups that rebuilt the leader's instance.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.MemoMisses }},
	{"banditd_decide_budget_stops_total", "Per-leader re-solves whose branch and bound stopped at its node budget (incumbent or greedy set applied, not a proven local optimum).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.BudgetStops }},
	{"banditd_decide_mini_rounds_total", "Protocol mini-rounds run by full decides.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.MiniRounds }},
	{"banditd_decide_weight_broadcasts_total", "Weight-broadcast messages of full decides.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WeightBroadcasts }},
	{"banditd_decide_leader_declarations_total", "Leader declarations of full decides.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.LeaderDeclarations }},
	{"banditd_decide_local_broadcasts_total", "Local-decision broadcasts of full decides.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.LocalBroadcasts }},
	{"banditd_decide_mini_timeslots_total", "Protocol mini-timeslots consumed by full decides.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.MiniTimeslots }},
	{"banditd_observations_total", "Applied external observation batches.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Observations }},
	{"banditd_observation_errors_total", "Failed fire-and-forget observation batches.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.ObservationErrors }},
	{"banditd_wal_appends_total", "Write-ahead log records appended.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WALAppends }},
	{"banditd_wal_append_bytes_total", "Framed bytes appended to write-ahead logs.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WALAppendBytes }},
	{"banditd_wal_fsyncs_total", "Real write-ahead log fsyncs.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WALFsyncs }},
	{"banditd_wal_snapshots_total", "Published snapshot files.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WALSnapshots }},
	{"banditd_wal_errors_total", "Durability failures (persistence is fail-open; alert on this).", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.WALErrors }},
	{"banditd_recovered_instances_total", "Instances rebuilt by Recover.", obs.KindCounter,
		func(c *ShardCounters) *atomic.Int64 { return &c.Recovered }},
}

// registerObs registers the registry-owned metric families: the per-shard
// serving counters (collector pattern — the actors' hot-path atomics are
// read only at scrape time), artifact-cache stats, the decision-path phase
// histograms, and the trace-ring meta metrics. Server registers the
// HTTP-layer families (uptime, request durations, regret) on top.
func (r *Registry) registerObs() {
	o := r.obs
	o.RegisterValues("banditd_shards", "Number of registry shards.", obs.KindGauge,
		func(emit obs.EmitValue) { emit(float64(len(r.shards))) })
	for _, f := range shardFamilies {
		f := f
		o.RegisterValues(f.name, f.help, f.kind, func(emit obs.EmitValue) {
			for i := range r.metrics.Shards {
				emit(float64(f.get(&r.metrics.Shards[i]).Load()), obs.L("shard", strconv.Itoa(i)))
			}
		})
	}
	o.RegisterValues("banditd_decide_leader_resolves_total", "Per-leader lookups that actually ran a local MWIS search (struct hits + misses).", obs.KindCounter,
		func(emit obs.EmitValue) {
			for i := range r.metrics.Shards {
				c := &r.metrics.Shards[i]
				emit(float64(c.MemoStructHits.Load()+c.MemoMisses.Load()), obs.L("shard", strconv.Itoa(i)))
			}
		})
	o.RegisterValues("banditd_artifact_cache_hits_total", "Artifact-cache hits (instances sharing constructed artifacts).", obs.KindCounter,
		func(emit obs.EmitValue) { emit(float64(r.cache.Stats().Hits)) })
	o.RegisterValues("banditd_artifact_cache_misses_total", "Artifact-cache misses (artifact sets constructed).", obs.KindCounter,
		func(emit obs.EmitValue) { emit(float64(r.cache.Stats().Misses)) })
	o.RegisterValues("banditd_artifact_cache_entries", "Artifact sets currently cached.", obs.KindGauge,
		func(emit obs.EmitValue) { emit(float64(r.cache.Stats().Entries)) })
	o.RegisterHistogram("banditd_decide_phase_ns",
		"Decision wall time by phase, nanoseconds. Phases broadcast, election, local_mwis and finalize partition a full decide; total is the full decide's wall clock (the span-coverage denominator); epoch_skip is the short-circuited boundary's wall clock. Populated only while decision-path tracing is attached (banditd -debug-addr).",
		func(emit obs.EmitHist) {
			emit(&r.phases.broadcast, obs.L("phase", "broadcast"))
			emit(&r.phases.election, obs.L("phase", "election"))
			emit(&r.phases.localMWIS, obs.L("phase", "local_mwis"))
			emit(&r.phases.finalize, obs.L("phase", "finalize"))
			emit(&r.phases.total, obs.L("phase", "total"))
			emit(&r.phases.epochSkip, obs.L("phase", "epoch_skip"))
		})
	o.RegisterValues("banditd_trace_spans_total", "Decision-path spans published to the trace ring (including overwritten ones).", obs.KindCounter,
		func(emit obs.EmitValue) {
			if r.trace != nil {
				emit(float64(r.trace.Published()))
			}
		})
	o.RegisterValues("banditd_trace_ring_capacity", "Trace ring capacity in spans (0 families absent: tracing disabled).", obs.KindGauge,
		func(emit obs.EmitValue) {
			if r.trace != nil {
				emit(float64(r.trace.Cap()))
			}
		})
}

// attachTrace wires an instance's slot kernel to the registry's trace ring
// and phase histograms. The hook runs on the instance's actor goroutine at
// every decision: it classifies the outcome from the trace's memo deltas,
// feeds the phase histograms, and publishes one immutable span (the one
// allocation tracing costs per decision — see the alloc guards in
// internal/core). Instances created while tracing is off stay untraced and
// keep the zero-cost nil-check decide path.
func (r *Registry) attachTrace(id string, loop *core.Loop) {
	ring := r.trace
	ph := &r.phases
	loop.SetDecideObserver(func(slot int, tr *protocol.DecideTrace) {
		var out obs.SpanOutcome
		switch {
		case tr.EpochSkip:
			out = obs.OutcomeEpochSkip
		case tr.MemoMisses > 0:
			out = obs.OutcomeFull
		case tr.MemoStructHits > 0:
			out = obs.OutcomeMemoStruct
		case tr.SensitivitySkips > 0:
			out = obs.OutcomeSensitivitySkip
		case tr.LeaderSkips > 0:
			out = obs.OutcomeLeaderSkip
		default:
			out = obs.OutcomeFull
		}
		if tr.EpochSkip {
			ph.epochSkip.Observe(tr.TotalNS)
		} else {
			ph.broadcast.Observe(tr.BroadcastNS)
			ph.election.Observe(tr.ElectionNS)
			ph.localMWIS.Observe(tr.LocalMWISNS)
			ph.finalize.Observe(tr.FinalizeNS)
			ph.total.Observe(tr.TotalNS)
		}
		ring.Publish(&obs.Span{
			Instance:         id,
			Slot:             int64(slot),
			Start:            tr.StartUnixNS,
			Outcome:          out,
			BroadcastNS:      tr.BroadcastNS,
			ElectionNS:       tr.ElectionNS,
			LocalMWISNS:      tr.LocalMWISNS,
			FinalizeNS:       tr.FinalizeNS,
			TotalNS:          tr.TotalNS,
			MiniRounds:       int32(tr.MiniRounds),
			LeaderSkips:      int32(tr.LeaderSkips),
			SensitivitySkips: int32(tr.SensitivitySkips),
			MemoStructHits:   int32(tr.MemoStructHits),
			MemoMisses:       int32(tr.MemoMisses),
		})
	})
}
