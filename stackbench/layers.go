package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerUnits lists every per-layer metric of the traced run with its unit.
// Layers a workload bypasses (the WAL and the wire on the step workloads)
// report 0.
var layerUnits = []struct{ name, unit string }{
	{"mwis.local_ns_per_decide", "ns"},
	{"mwis.solves_per_decide", "count"},
	{"protocol.decide_self_ns_per_decide", "ns"},
	{"protocol.broadcast_ns", "ns"},
	{"protocol.election_ns", "ns"},
	{"protocol.finalize_ns", "ns"},
	{"protocol.decides_per_slot", "count"},
	{"protocol.epoch_skips_per_decide", "count"},
	{"protocol.leader_skips_per_decide", "count"},
	{"protocol.sensitivity_skips_per_decide", "count"},
	{"protocol.reuse_frac", "ratio"},
	{"protocol.messages_per_decide", "count"},
	{"policy.indices_ns_per_decide", "ns"},
	{"policy.update_ns_per_slot", "ns"},
	{"policy.changed_frac", "ratio"},
	{"channel.sample_ns_per_slot", "ns"},
	{"core.self_ns_per_slot", "ns"},
	{"serve.hop_us_per_op", "us"},
	{"serve.create_ms", "ms"},
	{"wal.persist_us_per_op", "us"},
	{"wal.bytes_per_slot", "B"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.snapshots", "count"},
	{"wal.errors", "count"},
	{"wire.us_per_op", "us"},
	{"wire.bytes_per_op", "B"},
	{"wire.decode_errors", "count"},
	{"engine.artifact_build_ms", "ms"},
	{"engine.runtime_build_ms", "ms"},
	{"engine.cache_hit_frac", "ratio"},
	{"runtime.alloc_b_per_slot", "B"},
	{"runtime.gc_per_kslot", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.top_op_us", "us"},
	{"trace.residual_frac", "ratio"},
	{"trace.kernel_residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// accountRows orders the per-request time accounting printed by the traced
// run: the top rung's mean request time split into layers.
var accountRows = []string{"wire", "wal", "serve_hop", "core", "policy", "channel", "protocol", "mwis", "residual"}

// traced descends the layer ladder on the same inputs at least
// minTraceRounds times and again until --seconds have passed, and reports
// per-layer metrics as medians over the rounds. Each round runs every
// serving rung from the top down, then the core.Loop rung untraced and
// traced. Rung differences are taken within a round, whose repetitions run
// back to back, and the median over rounds discards the rounds a change of
// host speed fell into. Every rung must reproduce the replay digest.
func (b *bench) traced() (*result, error) {
	if err := b.replay(); err != nil {
		return nil, err
	}
	in, w := b.in, b.in.w
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	// Keep the raw spans of about 16 requests per rung repetition.
	stride := uint32(1 + (in.timedOps()+int64(in.warmRounds*len(in.specs)*w.opsPerRound()))/16)
	var (
		rounds []map[string]float64
		accts  []map[string]float64
		kept   []*tracer
		topLat []int64
	)
	costIn, costOut := calibrateSpanCost()
	trace := func(r string) *tracer {
		t := newTracer(r, stride)
		t.costIn, t.costOut = costIn, costOut
		return t
	}
	count := func(r *rep, what string) {
		if !b.check(r, what) {
			res.Correct = false
		}
		res.Attempted += r.c.attempted
		res.Failed += r.failedOps()
	}
	deadline := time.Now().Add(b.seconds)
	for len(rounds) < minTraceRounds || time.Now().Before(deadline) {
		ladder := map[rung]*rep{}
		var tracers []*tracer
		for _, r := range w.ladder() {
			tr := trace(r.String())
			rp, err := runRep(in, r, tr, b.dataDir, nil)
			if err != nil {
				return nil, fmt.Errorf("%s rung: %w", r, err)
			}
			count(rp, r.String()+" rung")
			ladder[r] = rp
			tracers = append(tracers, tr)
		}
		loopU, err := runRep(in, rungLoop, nil, "", nil)
		if err != nil {
			return nil, fmt.Errorf("loop rung: %w", err)
		}
		count(loopU, "loop rung")
		trT := trace("loop-traced")
		loopT, err := runRep(in, rungLoop, trT, "", nil)
		if err != nil {
			return nil, fmt.Errorf("traced loop rung: %w", err)
		}
		count(loopT, "traced loop rung")
		m, acct := layerMetrics(w, ladder, loopU, loopT, trT)
		rounds = append(rounds, m)
		accts = append(accts, acct)
		topLat = append(topLat, ladder[w.topRung()].c.lat...)
		kept = append(tracers, trT)
	}

	for _, lu := range layerUnits {
		vals := make([]float64, len(rounds))
		for i, m := range rounds {
			vals[i] = m[lu.name]
		}
		res.set(lu.name, lu.unit, median(vals))
	}
	res.stamp = b.newStamp(1, w.topRung(), len(rounds), summarizeLatency(topLat))

	path := filepath.Join(b.buildDir, "stackbench-traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, in.seed))
	if err := writeSpans(path, kept); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: traced ladder, %d rounds, spans of the last round in %s\n", w.name, in.seed, len(rounds), path)
	fmt.Fprintf(os.Stderr, "  top rung (%s) mean request %.2fus =\n", w.topRung(), res.Metrics["trace.top_op_us"].Value)
	for _, row := range accountRows {
		vals := make([]float64, len(accts))
		for i, a := range accts {
			vals[i] = a[row]
		}
		fmt.Fprintf(os.Stderr, "    %-13s %10.3fus\n", row, median(vals))
	}
	fmt.Fprintf(os.Stderr, "  kernel residual: %.1f%% of the traced loop rung's request time is in no kernel span (or in two)\n",
		100*res.Metrics["trace.kernel_residual_frac"].Value)
	fmt.Fprintf(os.Stderr, "  mailbox hop per slot: %.4fus (%d requests per %d slots)\n",
		res.Metrics["serve.hop_us_per_op"].Value*float64(w.opsPerRound())/float64(w.slotsPerRound()),
		w.opsPerRound(), w.slotsPerRound())
	fmt.Fprintf(os.Stderr, "  tracing overhead on the loop rung: %.1f%% (span cost %dns inside, %dns outside, subtracted from self times)\n",
		100*res.Metrics["trace.overhead_frac"].Value, costIn, costOut)
	return res, nil
}

// layerMetrics derives one round's per-layer metrics and request-time
// accounting. The wire and persistence, opaque from outside, are
// differences of adjacent rungs' mean request times; the mailbox hop is
// the session rung's null-request probe; layers inside the kernel are self
// times of the traced loop rung's spans.
func layerMetrics(w *workload, ladder map[rung]*rep, loopU, loopT *rep, tr *tracer) (map[string]float64, map[string]float64) {
	top := ladder[w.topRung()]
	st := loopT.stats
	slots := float64(loopT.c.slots)
	ops := float64(loopT.c.attempted)
	decides := float64(st.Decisions())
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	skips := float64(st.LeaderSkips + st.SensitivitySkips)
	mean := func(n spanName, ns int64) float64 { return div(float64(ns), float64(tr.count[n])) }
	coreSelf := float64(tr.self[spanStepSampled] + tr.self[spanStepExternal] + tr.self[spanEnsureDecided])
	timedDecides := float64(tr.decides)
	m := map[string]float64{
		"mwis.local_ns_per_decide":              div(float64(tr.total[spanLocalMWIS]), timedDecides),
		"mwis.solves_per_decide":                div(float64(st.LeaderResolves()), decides),
		"protocol.decide_self_ns_per_decide":    mean(spanDecide, tr.self[spanDecide]),
		"protocol.broadcast_ns":                 div(float64(tr.broadcastNS), timedDecides),
		"protocol.election_ns":                  div(float64(tr.electionNS), timedDecides),
		"protocol.finalize_ns":                  div(float64(tr.finalizeNS), timedDecides),
		"protocol.decides_per_slot":             div(decides, slots),
		"protocol.epoch_skips_per_decide":       div(float64(st.EpochSkips), decides),
		"protocol.leader_skips_per_decide":      div(float64(st.LeaderSkips), decides),
		"protocol.sensitivity_skips_per_decide": div(float64(st.SensitivitySkips), decides),
		"protocol.reuse_frac":                   div(skips, skips+float64(st.LeaderResolves())),
		"protocol.messages_per_decide":          div(float64(st.WeightBroadcasts+st.LeaderDeclarations+st.LocalBroadcasts), decides),
		"policy.indices_ns_per_decide":          mean(spanPolicyIndices, tr.total[spanPolicyIndices]),
		"policy.update_ns_per_slot":             mean(spanPolicyUpdate, tr.total[spanPolicyUpdate]),
		"policy.changed_frac":                   div(float64(tr.indicesChanged), float64(tr.arms)),
		"channel.sample_ns_per_slot":            div(float64(tr.total[spanSample]), slots),
		"core.self_ns_per_slot":                 div(coreSelf, slots),
		"serve.hop_us_per_op":                   ladder[rungSession].hopNS / 1e3,
		"serve.create_ms":                       float64(top.createNS) / float64(len(top.c.in.specs)) / 1e6,
		"engine.artifact_build_ms":              float64(top.artifactNS) / 1e6,
		"engine.runtime_build_ms":               float64(top.runtimeNS) / 1e6,
		"engine.cache_hit_frac":                 div(float64(top.cacheHits), float64(top.cacheLookups)),
		"runtime.alloc_b_per_slot":              div(float64(top.allocBytes), float64(top.c.slots)),
		"runtime.gc_per_kslot":                  div(1000*float64(top.gcCycles), float64(top.c.slots)),
		"runtime.gc_pause_ms":                   float64(top.gcPauseNS) / 1e6,
		"trace.top_op_us":                       top.meanOpNS() / 1e3,
		"trace.overhead_frac":                   loopT.meanOpNS()/loopU.meanOpNS() - 1,
	}
	if w.durable {
		topOps := float64(top.c.attempted)
		m["wal.persist_us_per_op"] = (ladder[rungDurable].meanOpNS() - ladder[rungSession].meanOpNS()) / 1e3
		m["wal.bytes_per_slot"] = div(float64(top.walBytes), float64(top.c.slots))
		m["wal.fsyncs_per_op"] = div(float64(top.walFsyncs), topOps)
		m["wal.snapshots"] = float64(top.walSnapshots)
		m["wal.errors"] = float64(top.walErrors)
		m["wire.us_per_op"] = (ladder[rungWire].meanOpNS() - ladder[rungDurable].meanOpNS()) / 1e3
		m["wire.bytes_per_op"] = div(float64(top.wireBytes), topOps)
		m["wire.decode_errors"] = float64(top.wireDecodeErrors)
	}

	// The kernel rows are self times per request on the traced loop rung.
	perOpUS := func(ns float64) float64 { return div(ns, ops) / 1e3 }
	acct := map[string]float64{
		"core":     perOpUS(coreSelf),
		"policy":   perOpUS(float64(tr.total[spanPolicyIndices] + tr.total[spanPolicyUpdate])),
		"channel":  perOpUS(float64(tr.total[spanSample])),
		"protocol": perOpUS(float64(tr.self[spanDecide])),
		"mwis":     perOpUS(float64(tr.total[spanLocalMWIS])),
	}
	traced := 0.0
	for _, v := range acct {
		traced += v
	}
	// With the tracer's calibrated cost of every span it timed they must
	// make up the traced loop rung's own request time. What they miss, or
	// count twice, is the kernel residual: apart from the loop target's
	// glue, it is time outside every span or inside two of them.
	var spans int64
	for n := spanStepSampled; n < spanLocalMWIS; n++ {
		spans += tr.count[n]
	}
	loopTUS := loopT.meanOpNS() / 1e3
	m["trace.kernel_residual_frac"] = div(loopTUS-traced-perOpUS(float64(spans*(tr.costIn+tr.costOut))), loopTUS)
	// The printed accounting then splits the untraced loop rung's request
	// time in the proportions the spans measured (tracing inflates the
	// kernel rows unevenly: the decider's own phase timing lands in
	// protocol and mwis). Adding wire, WAL and hop gives the top rung's time
	// up to the residual, the drift between rungs run at different moments.
	loopUS := loopU.meanOpNS() / 1e3
	for k, v := range acct {
		acct[k] = v * div(loopUS, traced)
	}
	acct["wire"] = m["wire.us_per_op"]
	acct["wal"] = m["wal.persist_us_per_op"]
	acct["serve_hop"] = m["serve.hop_us_per_op"]
	topUS := m["trace.top_op_us"]
	acct["residual"] = topUS - (acct["wire"] + acct["wal"] + acct["serve_hop"] + loopUS)
	m["trace.residual_frac"] = div(acct["residual"], topUS)
	return m, acct
}
